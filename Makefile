# Development entry points for the wsnva reproduction.

GO ?= go

.PHONY: all check build vet fmt radio-users test test-short race race-core race-runtime race-deploy race-shard-faults race-churn race-serve bench bench-smoke soak cover tables csv results fuzz fuzz-deploy fuzz-radio examples engines clean

all: build vet test

# The full pre-merge gate: vet, gofmt, build, one uncached pass of the
# whole test suite under the race detector (which takes in every focused
# race-* target below: the event kernel, radio medium, worker pool and
# sharded kernel, the goroutine runtime's E7 sweep pinned to its golden at
# several GOMAXPROCS, the deployment pipeline, the hazard-heavy and
# churned multi-worker shard runs, and the mission server under
# multi-tenant load), one quick benchmark iteration to catch allocation or
# wall-time blowups, the bench/ harness's own tests, a battery-depletion
# soak, the observability coverage floor, a short fuzz of the CSR neighbor
# build against its brute-force oracle, a short fuzz of the radio medium's
# conservation on lossy and lossless media, the seven examples, which
# drive the synthesized alarm and tracking programs through their public
# entry points, every wsnsim engine end to end, and results/ regenerated
# and compared with the committed tables, before they land. radio-users
# keeps the radio medium inside the Section 5 protocol packages.
check: vet fmt radio-users build race bench bench-smoke soak cover fuzz-deploy fuzz-radio examples engines results

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every Go file must already be gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

# Only the Section 5 protocol packages may drive the radio medium; every
# other package assembles the runtime system through emul.Stack. These
# protocols move onto the shard fabric next, and radio then leaves
# production code, which needs every other medium user gone first. Test
# files and bench/ (its own module, outside ./...) are not checked.
RADIO_USERS = radio vtopo binding vtree emul

radio-users:
	@bad=$$($(GO) list -f '{{.ImportPath}} {{join .Imports " "}}' ./... | \
	  awk -v ok="$(RADIO_USERS)" 'BEGIN { n = split(ok, a, " "); for (i = 1; i <= n; i++) allow["wsnva/internal/" a[i]] = 1 } \
	  !($$1 in allow) { for (i = 2; i <= NF; i++) if ($$i == "wsnva/internal/radio") print $$1 }'); \
	test -z "$$bad" || { echo "FAIL: internal/radio imported outside the protocol packages:"; echo "$$bad"; exit 1; }
	@echo "ok   internal/radio imported only by internal/{$$(echo $(RADIO_USERS) | tr ' ' ,)}"

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The whole suite under the race detector, fresh (-count=1, never
# cached). Every race-* target below selects a subset of it; they stay
# for focused runs.
race:
	$(GO) test -race -count=1 ./...

# The event kernel, the radio medium, the worker pool, and the sharded
# parallel kernel are where a data race would silently break
# determinism. The shard package includes a dedicated multi-worker
# run (TestEngineRaceSmokeMultiWorker) exercising the window-barrier
# inbox handoff under 2 and 4 workers.
race-core:
	$(GO) test -race -count=1 ./internal/sim/ ./internal/radio/ ./internal/parallel/ ./internal/shard/

# The goroutine runtime under the race detector: quick E7 (lossy labeling
# rounds, one goroutine per node) on a 4-worker pool at GOMAXPROCS 1, 2
# and 8, each table required to equal E7's block of the quick-tables
# golden.
race-runtime:
	$(GO) test -race -count=1 -run 'TestE7' ./internal/experiments/

# The deployment pipeline under the race detector: the CSR neighbor build,
# whose count and fill passes each run one task per bucket row on the
# pool, and the differential tests pinning it to the pool-less build and
# the legacy oracle, under real goroutine interleaving.
race-deploy:
	$(GO) test -race -count=1 ./internal/deploy/

# The fault plane under the race detector: a multi-worker sharded run
# with the lossy channel, a crash schedule, and battery depletion all
# armed (TestShardFaultsRaceSmoke), plus the hazard differential
# property suite, the partition property (random owners and slot orders
# on 2 and 4 workers), and the two tests that pin the drain's one
# liveness gate and one summed Rx charge per node at a hazard instant
# (TestInjectedFanoutSameInstantHazards: a receiver crashing or falling
# asleep as an injected fan-out reaches it; TestSameInstantReceptionsChargeOnce:
# a budget running out inside one node's same-instant batch). The shared
# StreamChannel, the per-shard banks, the shards' disjoint slot ranges,
# and the dying-gasp paths all execute under real goroutine interleaving.
race-shard-faults:
	$(GO) test -race -count=1 -run 'TestShardFaultsRaceSmoke|TestQuickDifferential|TestQuickPartitionInvariance|TestInjectedFanoutSameInstantHazards|TestSameInstantReceptionsChargeOnce' ./internal/shard/

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
# -benchtime=1x for per-experiment ns/op and allocs/op (BenchmarkTables),
# for the shard layer's flood-scale ns/op and B/op, lossless and under
# E22's and E24's hazards (BenchmarkShardFlood), and for the
# deploy layer's CSR build and validation up to flood-scale's 16,384
# nodes (BenchmarkBuildCSR, BenchmarkValidate); end-to-end and per-layer
# numbers come from bench/ (bash bench/run.sh, see bench/README.md).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run=^$$ . ./internal/shard/ ./internal/deploy/

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
# verification substrate and are gated at 75%; the sharded kernel (the
# differential-conformance tentpole), the DES machine (whose one
# transmission path every fault test drives) and the deployment package
# (whose neighbor rows and bucket order every shard delivery and slot
# layout reads in place) carry an 80% floor.
COVER_PKGS = ./internal/trace/ ./internal/trace/check/ ./internal/metrics/
COVER_FLOOR = 75.0
ENGINE_COVER_PKGS = ./internal/shard/ ./internal/varch/ ./internal/deploy/
ENGINE_COVER_FLOOR = 80.0

cover:
	@$(GO) test -cover $(COVER_PKGS) | awk -v floor=$(COVER_FLOOR) '\
	{ print } \
	/coverage:/ { pct = $$0; sub(/.*coverage: /, "", pct); sub(/%.*/, "", pct); \
	  if (pct + 0 < floor) { print "FAIL: coverage below " floor "% floor"; bad = 1 } } \
	END { exit bad }'
	@$(GO) test -cover $(ENGINE_COVER_PKGS) | awk -v floor=$(ENGINE_COVER_FLOOR) '\
	{ print } \
	/coverage:/ { pct = $$0; sub(/.*coverage: /, "", pct); sub(/%.*/, "", pct); \
	  if (pct + 0 < floor) { print "FAIL: coverage below " floor "% floor"; bad = 1 } } \
	END { exit bad }'

# Regenerate every experiment table (E1-E24, E26, A1-A3).
tables:
	$(GO) run ./cmd/benchtab

# Same, writing one CSV per experiment and report.md into results/.
csv:
	$(GO) run ./cmd/benchtab -out results

# results/ must be exactly what the code prints: regenerate it and fail if
# any committed file changed or a new one appeared.
results: csv
	@test -z "$$(git status --porcelain -- results/)" || \
	  { git status --porcelain -- results/; echo "FAIL: make csv changed results/"; exit 1; }

fuzz:
	$(GO) test -fuzz FuzzDecodeSummary -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzDecodeGraphMsg -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzMediumConservation -fuzztime 30s ./internal/radio/
	$(GO) test -fuzz FuzzCSRNeighbors -fuzztime 30s ./internal/deploy/
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz FuzzEncode -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz FuzzRun -fuzztime 30s ./internal/trace/check/
	$(GO) test -fuzz '^FuzzWindowBoundary$$' -fuzztime 30s ./internal/shard/
	$(GO) test -fuzz FuzzLossyWindowBoundary -fuzztime 30s ./internal/shard/
	$(GO) test -fuzz FuzzMidRunDeath -fuzztime 30s ./internal/shard/
	$(GO) test -fuzz FuzzChurnRepair -fuzztime 30s ./internal/emul/
	$(GO) test -fuzz FuzzMissionSpec -fuzztime 30s ./internal/serve/

# FuzzCSRNeighbors for 10 s: random point sets and ranges, every CSR row
# checked against a brute-force O(n²) neighbor scan; on a fixed 4×4 grid
# over each set, the per-cell CellsConnected checked against the legacy
# map BFS, and Generate's two-predicate acceptance checked to imply
# brute-force connectivity.
fuzz-deploy:
	$(GO) test -run '^$$' -fuzz FuzzCSRNeighbors -fuzztime 10s ./internal/deploy/

# FuzzMediumConservation for 10 s: random scripts of broadcasts, unicasts
# and kills, each run at a fuzzed loss and without loss (where broadcasts
# fan out over the sender's CSR row in place), checking conservation,
# non-negative energy and undamaged payloads.
fuzz-radio:
	$(GO) test -run '^$$' -fuzz FuzzMediumConservation -fuzztime 10s ./internal/radio/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/microclimate
	$(GO) run ./examples/contaminant
	$(GO) run ./examples/retasking
	$(GO) run ./examples/wildfire
	$(GO) run ./examples/clustered
	$(GO) run ./examples/tracking

# The wsnsim command on every execution engine at side 8: each run must
# find as many regions as the ground truth, an unknown engine must be
# rejected before the deployment phase runs, and a NaN loss probability
# must fail the goroutine and shard engines instead of running lossless.
# The DES engine keeps one trace: -trace 5 -trace-out must export as many
# events as -trace-out alone, and tracecat -check must find the export
# lawful. The physical engine's export (emul's virtual plane, the radio
# and the ledger, 1,264 events at seed 1) must pass tracecat -check too.
# A shard-engine churn mission must apply the same suspends and
# resumes through wsnsim as through wsnserve -oneshot on the same spec,
# and a lossy shard mission with crashes and churn must export the same
# canonical trace, byte for byte, from wsnsim -trace-out as from
# wsnserve -oneshot -trace-out (205 events at seed 1): both run the
# crash and churn schedules serve.EngineConfig builds and encode through
# trace.AppendJSONL, so a drift in either fails cmp.
ENGINES = des lockstep goroutine physical shard
CHURN_SPEC = {"workload":"labeling","side":8,"seed":1,"churn_rate":0.5}
PARITY_FLAGS = -side 8 -seed 1 -engine shard -loss 0.01 -crash-frac 0.05 -churn-rate 0.5
PARITY_SPEC = {"workload":"labeling","side":8,"seed":1,"loss":0.01,"crash_frac":0.05,"churn_rate":0.5,"trace":true}

engines:
	@for e in $(ENGINES); do \
	  out=$$($(GO) run ./cmd/wsnsim -side 8 -engine $$e) || exit 1; \
	  line=$$(echo "$$out" | grep '^regions found:'); \
	  echo "$$line" | grep -q '^regions found: \([0-9][0-9]*\) (ground truth \1)$$' || \
	    { echo "FAIL: -engine $$e: $${line:-no regions line}"; exit 1; }; \
	  echo "ok   -engine $$e: $$line"; \
	done
	@if out=$$($(GO) run ./cmd/wsnsim -side 8 -engine bogus 2>&1); then \
	  echo "FAIL: -engine bogus exited 0"; exit 1; fi; \
	if echo "$$out" | grep -q 'deployment:'; then \
	  echo "FAIL: -engine bogus ran the deployment"; exit 1; fi; \
	echo "ok   -engine bogus rejected before deployment"
	@for e in goroutine shard; do \
	  if $(GO) run ./cmd/wsnsim -side 8 -engine $$e -loss NaN >/dev/null 2>&1; then \
	    echo "FAIL: -engine $$e -loss NaN exited 0"; exit 1; fi; \
	  echo "ok   -engine $$e -loss NaN rejected"; \
	done
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/wsnsim -side 8 -engine des -trace 5 -trace-out $$dir/both.jsonl >/dev/null && \
	$(GO) run ./cmd/wsnsim -side 8 -engine des -trace-out $$dir/out.jsonl >/dev/null && \
	both=$$(wc -l < $$dir/both.jsonl) && out=$$(wc -l < $$dir/out.jsonl) && \
	if [ "$$both" -ne "$$out" ]; then \
	  echo "FAIL: -trace 5 -trace-out exported $$both events, -trace-out alone $$out"; exit 1; fi && \
	$(GO) run ./cmd/tracecat -check -side 8 $$dir/both.jsonl && \
	echo "ok   -engine des -trace 5 -trace-out exports the whole trace ($$out events)"
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/wsnsim -side 8 -engine physical -trace-out $$dir/phys.jsonl >/dev/null && \
	$(GO) run ./cmd/tracecat -check -side 8 $$dir/phys.jsonl && \
	echo "ok   -engine physical -trace-out exports a lawful trace ($$(wc -l < $$dir/phys.jsonl) events)"
	@cli=$$($(GO) run ./cmd/wsnsim -side 8 -seed 1 -engine shard -churn-rate 0.5 | \
	  sed -n 's|^churn: .* applied as \([0-9]*\) suspends / \([0-9]*\) resumes$$|\1/\2|p') && \
	srv=$$(echo '$(CHURN_SPEC)' | $(GO) run ./cmd/wsnserve -oneshot - | \
	  sed -n 's|.*"suspends":\([0-9]*\),"resumes":\([0-9]*\).*|\1/\2|p') && \
	if [ -z "$$cli" ] || [ "$$cli" != "$$srv" ]; then \
	  echo "FAIL: shard churn mission: wsnsim $${cli:-none} vs wsnserve $${srv:-none} suspends/resumes"; exit 1; fi && \
	echo "ok   shard churn mission: wsnsim and wsnserve apply $$cli suspends/resumes"
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/wsnsim $(PARITY_FLAGS) -trace-out $$dir/cli.jsonl >/dev/null && \
	echo '$(PARITY_SPEC)' | $(GO) run ./cmd/wsnserve -oneshot - -trace-out $$dir/srv.jsonl >/dev/null && \
	cmp $$dir/cli.jsonl $$dir/srv.jsonl && \
	echo "ok   shard trace: wsnsim and wsnserve export the same $$(wc -l < $$dir/cli.jsonl) events ($$(wc -c < $$dir/cli.jsonl) bytes)"

# Build output only: the bench/ build directory and the binaries
# `go build ./cmd/<name>` leaves in the repository root. results/ is
# committed data and stays.
clean:
	rm -rf .bench_build
	rm -f benchtab synthesize topoviz tracecat wsnserve wsnsim
