package runtime

import (
	"testing"

	"wsnva/internal/varch"
)

func TestCrashFreeFailoverMatchesBaseline(t *testing.T) {
	// An all-alive Crashed slice with failover on must be indistinguishable
	// from the bare engine: leaderOf resolves every leader to itself.
	m := blobMap(8, 3)
	h := varch.MustHierarchy(m.Grid)
	base, err := New(h).Run(m, nil, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(h).Run(m, nil, Config{
		Seed:     1,
		Crashed:  make([]bool, m.Grid.N()),
		Failover: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final == nil || res.Final.Count() != base.Final.Count() {
		t.Fatalf("failover-armed run diverged from baseline")
	}
	if res.RootCoverage != m.Grid.N() || res.Dropped != 0 {
		t.Errorf("coverage %d dropped %d; want full coverage, no drops",
			res.RootCoverage, res.Dropped)
	}
}

func TestDeadRootStrandsDataWithoutFailover(t *testing.T) {
	// A dead root with no failover blackholes every upward message addressed
	// to it: the round quiesces cleanly (no timeout), exfiltrates nothing,
	// and the root's state holds nothing — coverage zero.
	m := blobMap(8, 5)
	h := varch.MustHierarchy(m.Grid)
	crashed := make([]bool, m.Grid.N())
	crashed[m.Grid.Index(h.Root())] = true
	res, err := New(h).Run(m, nil, Config{Seed: 2, Crashed: crashed})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stalled || res.Final != nil {
		t.Error("round completed despite a dead, non-failed-over root")
	}
	if res.Dropped == 0 {
		t.Error("no drops recorded for traffic addressed to a dead root")
	}
	if res.RootCoverage != 0 {
		t.Errorf("dead root reports coverage %d, want 0", res.RootCoverage)
	}
}

func TestFailoverConcentratesCoverageAtActingRoot(t *testing.T) {
	// With failover, all traffic addressed to the dead root re-routes to the
	// acting root, which accumulates the three surviving quadrant summaries
	// at the top level: RootCoverage is exactly 3N/4, independent of the Go
	// scheduler (message counts are fixed; merges commute). Exfiltration
	// still cannot happen — the acting root's program shipped its own data
	// at level 0 and its recLevel never advances; forcing promotion is the
	// DES engine's watchdog job (synth.RunWithFaults), while this engine
	// models only the post-detection routing steady state.
	m := blobMap(8, 7)
	h := varch.MustHierarchy(m.Grid)
	n := m.Grid.N()
	crashed := make([]bool, n)
	crashed[m.Grid.Index(h.Root())] = true
	res, err := New(h).Run(m, nil, Config{Seed: 3, Crashed: crashed, Failover: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final != nil {
		t.Error("static failover exfiltrated without a deadline protocol")
	}
	if res.Dropped != 0 {
		t.Errorf("dropped %d with every leader failed over to a live node", res.Dropped)
	}
	if want := 3 * n / 4; res.RootCoverage != want {
		t.Errorf("acting root coverage %d, want exactly %d", res.RootCoverage, want)
	}
}

func TestBudgetDepletesOnConcurrentEngine(t *testing.T) {
	// The goroutine engine's battery path: an unlimited budget (zero) is the
	// exact pre-battery behavior, a generous budget changes nothing, and a
	// starvation budget depletes nodes. Depletion order is scheduler-
	// dependent here (the byte-exact laws live on the DES engine), so this
	// asserts outcomes, not trajectories.
	m := blobMap(8, 5)
	h := varch.MustHierarchy(m.Grid)
	base, err := New(h).Run(m, nil, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rich, err := New(h).Run(m, nil, Config{Seed: 2, Budget: 1 << 40, Failover: true})
	if err != nil {
		t.Fatal(err)
	}
	if rich.Depleted != 0 {
		t.Fatalf("depleted %d nodes under an effectively infinite budget", rich.Depleted)
	}
	if rich.Final == nil || rich.Final.Count() != base.Final.Count() {
		t.Fatal("generous budget changed the labeling result")
	}
	poor, err := New(h).Run(m, nil, Config{Seed: 2, Budget: 3, Failover: true})
	if err != nil {
		t.Fatal(err)
	}
	if poor.Depleted == 0 {
		t.Fatal("no node depleted under a starvation budget")
	}
	if poor.Final != nil && poor.RootCoverage == m.Grid.N() && poor.Depleted > m.Grid.N()/2 {
		t.Error("full coverage despite majority depletion is implausible")
	}
}

func TestBudgetValidation(t *testing.T) {
	m := blobMap(4, 5)
	h := varch.MustHierarchy(m.Grid)
	if _, err := New(h).Run(m, nil, Config{Budget: -1}); err == nil {
		t.Fatal("negative budget accepted")
	}
}
