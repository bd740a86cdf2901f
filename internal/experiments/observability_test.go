package experiments

import (
	"testing"
	"testing/quick"

	"wsnva/internal/battery"
	"wsnva/internal/cost"
	"wsnva/internal/fault"
	"wsnva/internal/synth"
	"wsnva/internal/trace"
	"wsnva/internal/trace/check"
)

// TestTraceTransparency pins the observability layer's core promise at the
// harness level: attaching a tracer changes nothing about the results. The
// three experiments cover the three engine families that emit — the DES
// machine (E2), the goroutine runtime (E7), and the physical radio plane
// (E12) — and each must render a byte-identical table traced and untraced.
func TestTraceTransparency(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Options) string
	}{
		{"E2-des", func(o Options) string { return E2Steps(o).String() }},
		{"E7-runtime", func(o Options) string { return E7Loss(o).String() }},
		{"E12-physical", func(o Options) string { return E12TreeTopology(o).String() }},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			plain := tc.run(Options{Quick: true})
			tr := trace.New()
			traced := tc.run(Options{Quick: true, Trace: tr})
			if plain != traced {
				t.Errorf("%s: table diverges when traced:\n--- untraced ---\n%s\n--- traced ---\n%s",
					tc.name, plain, traced)
			}
			if len(tr.Events()) == 0 {
				t.Errorf("%s: tracer attached but saw no events", tc.name)
			}
		})
	}
}

// TestRunDESTransparencyProperty is the same promise as a property over
// random workloads: for any map seed, a traced DES labeling round and an
// untraced one agree on completion time, rule firings, region count, and
// ledger total.
func TestRunDESTransparencyProperty(t *testing.T) {
	prop := func(s uint8) bool {
		seed := int64(s)
		plain, plainLedger := runDES(blobMapFor(8, seed), nil)
		tr := trace.New()
		traced, tracedLedger := runDES(blobMapFor(8, seed), tr)
		return plain.Completion == traced.Completion &&
			plain.RuleFirings == traced.RuleFirings &&
			plain.Final.Count() == traced.Final.Count() &&
			plainLedger.Total() == tracedLedger.Total() &&
			len(tr.Events()) > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// invariantRound traces one fault-injected round, then replays the whole
// stream through the invariant engine with the run's own ledger total as
// the conservation target.
func invariantRound(t *testing.T, name string, cfg synth.FaultConfig) {
	t.Helper()
	tr := trace.New()
	_, vm := faultRound(8, 7, cfg, tr)
	vs := check.Run(tr.Events(), check.Options{Side: 8, LedgerTotal: int64(vm.Ledger().Total())})
	for i, v := range vs {
		if i >= 5 {
			t.Errorf("%s: ... and %d more", name, len(vs)-i)
			break
		}
		t.Errorf("%s: %s", name, v)
	}
}

// TestInvariantFaultSweeps replays traced rounds from the E17/E18/E20
// regimes — crashes with watchdog failover, loss with the ARQ armed, and
// battery depletion under a bursty channel — through every trace/check
// rule. This is the payoff of the layer: the conformance argument is "the
// whole event stream is lawful", not "a few final counters look right".
func TestInvariantFaultSweeps(t *testing.T) {
	n := 8 * 8
	invariantRound(t, "E17-crashes", synth.FaultConfig{
		Schedule: fault.MustRandom(n, 0.2, crashWindow, 1000+8),
	})
	invariantRound(t, "E18-arq-loss", synth.FaultConfig{
		Schedule:    fault.MustRandom(n, 0.1, crashWindow, 1000+8),
		Channel:     bernoulli(0.1, 33+8),
		Reliability: fault.DefaultReliability(),
	})
	burst := fault.DefaultBurst()
	invariantRound(t, "E20-depletion-burst", synth.FaultConfig{
		Channel:     burst.Process(97),
		Reliability: fault.DefaultReliability(),
		Battery:     battery.Uniform(n, 100),
	})
}

// TestInvariantLifetimeMission replays an E19-style depletion mission on
// the physical stack. The tracer attaches after setup (the budgets'
// sunk-cost convention), so the ledger total includes untraced setup
// charges and the conservation rule is skipped (LedgerTotal -1); every
// pairing, liveness, and ordering rule still applies to both planes.
func TestInvariantLifetimeMission(t *testing.T) {
	for _, rotate := range []bool{false, true} {
		tr := trace.New()
		out, _ := lifetimeMission(cost.Energy(200), rotate, tr)
		if out.Rounds == 0 {
			t.Fatalf("rotate=%v: mission ran no rounds", rotate)
		}
		vs := check.Run(tr.Events(), check.Options{Side: 4, LedgerTotal: -1})
		for i, v := range vs {
			if i >= 5 {
				t.Errorf("rotate=%v: ... and %d more", rotate, len(vs)-i)
				break
			}
			t.Errorf("rotate=%v: %s", rotate, v)
		}
	}
}
