# Development entry points for the wsnva reproduction.

GO ?= go

.PHONY: all check build vet fmt test test-short race race-core race-deploy race-shard-faults race-churn race-serve bench bench-smoke soak cover tables csv report fuzz examples clean

all: build vet test

# The full pre-merge gate: vet, gofmt, build, an uncached race pass over the
# concurrency-critical packages, a hazard-heavy multi-worker shard run
# under the race detector, a churned multi-worker shard run plus the
# churn differential suite under the race detector, the mission server
# under multi-tenant load with the race detector, the whole test suite
# under the race detector, one quick benchmark iteration to catch
# allocation or wall-time blowups, the bench/ harness's own tests, a
# battery-depletion soak, and the observability coverage floor before
# they land.
check: vet fmt build race-core race-deploy race-shard-faults race-churn race-serve race bench bench-smoke soak cover

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every Go file must already be gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# The event kernel, the radio medium, the worker pool, and the sharded
# parallel kernel are where a data race would silently break
# determinism, so they get a fresh (-count=1, never cached) race pass
# on every check. The shard package includes a dedicated multi-worker
# run (TestEngineRaceSmokeMultiWorker) exercising the window-barrier
# inbox handoff under 2 and 4 workers.
race-core:
	$(GO) test -race -count=1 ./internal/sim/ ./internal/radio/ ./internal/parallel/ ./internal/shard/

# The deployment pipeline under the race detector: the parallel two-pass
# CSR neighbor construction over bucket rows and the differential test
# pinning it to its sequential twin, under real goroutine interleaving.
race-deploy:
	$(GO) test -race -count=1 ./internal/deploy/

# The fault plane under the race detector: a multi-worker sharded run
# with the lossy channel, a crash schedule, and battery depletion all
# armed (TestShardFaultsRaceSmoke), plus the hazard differential
# property suite. The shared StreamChannel, the per-shard banks, and
# the dying-gasp paths all execute under real goroutine interleaving.
race-shard-faults:
	$(GO) test -race -count=1 -run 'TestShardFaultsRaceSmoke|TestQuickDifferential' ./internal/shard/

# The churn plane under the race detector: an 8-shard 4-worker run with
# a Poisson sleep/wake schedule armed (TestShardChurnRaceSmoke), the
# deterministic churn differentials, and the emulation-side churn
# mission with its bounded-recovery trace checks.
race-churn:
	$(GO) test -race -count=1 -run 'TestShardChurnRaceSmoke|TestChurn' ./internal/shard/ ./internal/emul/

# The mission server under the race detector: N concurrent tenants
# hammering the scheduler with admission caps asserted (no tenant
# starves, queue bound respected), concurrent identical submissions
# coalescing onto one flight, and the full e2e lifecycle with its
# streaming path.
race-serve:
	$(GO) test -race -count=1 -run 'TestRace|TestE2E|TestQuickServerMatchesDirect' ./internal/serve/

# Micro-benchmarks only (-run=^$$ skips the unit tests), with allocation
# counts; short benchtime keeps this a quick regression pass. Drop
# -benchtime=1x for per-experiment ns/op and allocs/op; end-to-end and
# per-layer numbers come from bench/ (bash bench/run.sh, see
# bench/README.md).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run=^$$ .

# The bench/ harness is its own module, so the root `go test ./...`
# never compiles it; its smoke tests catch API it uses going away.
bench-smoke:
	cd bench && $(GO) test ./...

# Depletion soak: a widened randomized-but-seeded battery sweep asserting
# the closed-loop invariants (dead nodes never charged, ledger/bank
# agreement, depletion counts consistent). SOAK_SEEDS widens the batch
# beyond the 6 seeds the plain test suite runs.
soak:
	SOAK_SEEDS=40 $(GO) test -run TestDepletionSoak -count=1 ./internal/experiments/

# Coverage floors: the trace/metrics/check packages are the repo's
# verification substrate and are gated at 75%; the sharded kernel is the
# differential-conformance tentpole and carries its own 80% floor.
COVER_PKGS = ./internal/trace/ ./internal/trace/check/ ./internal/metrics/
COVER_FLOOR = 75.0
SHARD_COVER_FLOOR = 80.0

cover:
	@$(GO) test -cover $(COVER_PKGS) | awk -v floor=$(COVER_FLOOR) '\
	{ print } \
	/coverage:/ { pct = $$0; sub(/.*coverage: /, "", pct); sub(/%.*/, "", pct); \
	  if (pct + 0 < floor) { print "FAIL: coverage below " floor "% floor"; bad = 1 } } \
	END { exit bad }'
	@$(GO) test -cover ./internal/shard/ | awk -v floor=$(SHARD_COVER_FLOOR) '\
	{ print } \
	/coverage:/ { pct = $$0; sub(/.*coverage: /, "", pct); sub(/%.*/, "", pct); \
	  if (pct + 0 < floor) { print "FAIL: shard coverage below " floor "% floor"; bad = 1 } } \
	END { exit bad }'

# Regenerate every experiment table (E1-E26, A1-A3).
tables:
	$(GO) run ./cmd/benchtab

# Same, writing one CSV per experiment into results/.
csv:
	$(GO) run ./cmd/benchtab -out results

# Self-contained markdown report of every experiment.
report:
	$(GO) run ./cmd/report -o results/report.md

fuzz:
	$(GO) test -fuzz FuzzDecodeSummary -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzDecodeGraphMsg -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzMediumConservation -fuzztime 30s ./internal/radio/
	$(GO) test -fuzz FuzzCSRNeighbors -fuzztime 30s ./internal/deploy/
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz FuzzRun -fuzztime 30s ./internal/trace/check/
	$(GO) test -fuzz '^FuzzWindowBoundary$$' -fuzztime 30s ./internal/shard/
	$(GO) test -fuzz FuzzLossyWindowBoundary -fuzztime 30s ./internal/shard/
	$(GO) test -fuzz FuzzMidRunDeath -fuzztime 30s ./internal/shard/
	$(GO) test -fuzz FuzzChurnRepair -fuzztime 30s ./internal/emul/
	$(GO) test -fuzz FuzzMissionSpec -fuzztime 30s ./internal/serve/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/microclimate
	$(GO) run ./examples/contaminant
	$(GO) run ./examples/retasking
	$(GO) run ./examples/wildfire
	$(GO) run ./examples/clustered
	$(GO) run ./examples/tracking

clean:
	rm -rf results
