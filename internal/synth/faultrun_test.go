package synth

import (
	"math/rand"
	"testing"

	"wsnva/internal/battery"
	"wsnva/internal/cost"
	"wsnva/internal/fault"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/sim"
	"wsnva/internal/varch"
)

func blobMap(side int, seed int64) *field.BinaryMap {
	g := geom.NewSquareGrid(side, float64(side))
	f := field.RandomBlobs(3, g.Terrain, float64(side)/8, float64(side)/4, rand.New(rand.NewSource(seed)))
	return field.Threshold(f, g, 0.5, 0)
}

// faultMachine builds a machine over the map's own grid (RunWithFaults
// compares grids by identity).
func faultMachine(m *field.BinaryMap) *varch.Machine {
	h := varch.MustHierarchy(m.Grid)
	l := cost.NewLedger(cost.NewUniform(), m.Grid.N())
	return varch.NewMachine(h, sim.New(), l)
}

func TestRunWithFaultsNoFaultsMatchesPlainRun(t *testing.T) {
	// With an empty schedule, no loss, and generous deadlines, the fault
	// driver must reproduce the plain driver's result exactly: same summary,
	// same completion time, no forced promotions, no failovers.
	m := blobMap(8, 17)
	plain, err := RunOnMachine(faultMachine(m), m)
	if err != nil {
		t.Fatal(err)
	}
	vm := faultMachine(m)
	res, err := RunWithFaults(vm, m, FaultConfig{LevelDeadline: DefaultLevelDeadline(vm)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final == nil || !res.Final.Equal(plain.Final) {
		t.Fatalf("fault driver summary differs from plain driver")
	}
	if res.Completion != plain.Completion {
		t.Errorf("completion %d, plain %d", res.Completion, plain.Completion)
	}
	if res.ForcedPromotions != 0 || res.LeaderFailovers != 0 {
		t.Errorf("healthy round forced %d promotions, %d failovers; want 0",
			res.ForcedPromotions, res.LeaderFailovers)
	}
	if res.Coverage != 1 {
		t.Errorf("coverage = %v, want 1", res.Coverage)
	}
	if res.ExfilCoord != vm.Hier.Root() {
		t.Errorf("exfiltration at %v, want root", res.ExfilCoord)
	}
}

func TestRunWithFaultsSurvivesRootCrash(t *testing.T) {
	// Kill the root (the level-max leader at (0,0)) right after the start
	// rules fire: followers must fail over and an acting root must
	// exfiltrate a partial summary.
	m := blobMap(8, 23)
	run := func(rel fault.Reliability) *FaultResult {
		vm := faultMachine(m)
		sched := fault.At(fault.Crash{Node: vm.Grid().Index(vm.Hier.Root()), At: 1})
		res, err := RunWithFaults(vm, m, FaultConfig{
			Schedule:      sched,
			Reliability:   rel,
			LevelDeadline: DefaultLevelDeadline(vm),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Final == nil {
			t.Fatal("round stalled: no exfiltration despite failover + deadlines")
		}
		if res.ExfilCoord == vm.Hier.Root() {
			t.Error("dead root exfiltrated")
		}
		if res.LeaderFailovers == 0 {
			t.Error("no leader failover recorded for a dead root")
		}
		return res
	}

	n := float64(blobMap(8, 23).Grid.N())
	// Without ARQ, the root's 3 level-1 siblings had quorum messages in
	// flight to it at crash time; those die with the root, so exactly the
	// NW 2x2 block's 4 cells are lost.
	if res := run(fault.Reliability{}); res.Coverage != (n-4)/n {
		t.Errorf("plain coverage = %v, want exactly %v (root block lost in flight)",
			res.Coverage, (n-4)/n)
	}
	// With ARQ, the ack timeout re-resolves the acting leader on retry, so
	// the in-flight siblings' data is recovered; only the root's own cell
	// dies with it.
	if res := run(fault.DefaultReliability()); res.Coverage != (n-1)/n {
		t.Errorf("reliable coverage = %v, want exactly %v (only the root's cell lost)",
			res.Coverage, (n-1)/n)
	}
}

func TestRunWithFaultsRegionKill(t *testing.T) {
	// A correlated kill zone (the whole NE 2x2 block at t=1, before any of
	// it is aggregated) must cost exactly that block's cells and nothing
	// else.
	m := blobMap(8, 29)
	vm := faultMachine(m)
	g := vm.Grid()
	sched := fault.Region(g, geom.Coord{Col: 6, Row: 0}, geom.Coord{Col: 7, Row: 1}, 1)
	res, err := RunWithFaults(vm, m, FaultConfig{
		Schedule:      sched,
		LevelDeadline: DefaultLevelDeadline(vm),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final == nil {
		t.Fatal("round stalled")
	}
	want := float64(g.N()-4) / float64(g.N())
	if res.Coverage != want {
		t.Errorf("coverage = %v, want exactly %v (4 dead cells)", res.Coverage, want)
	}
	if res.Crashed != 4 {
		t.Errorf("Crashed = %d, want 4", res.Crashed)
	}
}

func TestRunWithFaultsDeterministic(t *testing.T) {
	run := func() *FaultResult {
		m := blobMap(8, 31)
		vm := faultMachine(m)
		res, err := RunWithFaults(vm, m, FaultConfig{
			Schedule:      fault.MustRandom(vm.Grid().N(), 0.15, 50, 99),
			Channel:       fault.NewBernoulli(0.1, rand.New(rand.NewSource(7))),
			Reliability:   fault.DefaultReliability(),
			LevelDeadline: DefaultLevelDeadline(vm),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Completion != b.Completion || a.Coverage != b.Coverage ||
		a.RuleFirings != b.RuleFirings || a.ForcedPromotions != b.ForcedPromotions ||
		a.Stats != b.Stats {
		t.Errorf("two identical fault runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Final == nil || b.Final == nil || !a.Final.Equal(b.Final) {
		t.Error("summaries diverged between identical runs")
	}
}

func TestRunWithFaultsCoverageMonotoneInCrashFraction(t *testing.T) {
	// Nested crash sets (fault.Random's permutation-prefix construction)
	// make the dead set grow with the fraction, so exfiltrated coverage can
	// only fall as the fraction rises.
	const seed = 4242
	prev := 2.0
	for _, frac := range []float64{0, 0.05, 0.1, 0.2, 0.3} {
		m := blobMap(8, 11)
		vm := faultMachine(m)
		res, err := RunWithFaults(vm, m, FaultConfig{
			Schedule:      fault.MustRandom(vm.Grid().N(), frac, 40, seed),
			LevelDeadline: DefaultLevelDeadline(vm),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Final == nil {
			t.Fatalf("frac %v: stalled", frac)
		}
		if res.Coverage > prev {
			t.Errorf("coverage rose from %v to %v at frac %v", prev, res.Coverage, frac)
		}
		prev = res.Coverage
	}
	if prev > 0.9 {
		t.Errorf("30%% crash fraction left coverage at %v; sweep isn't exercising faults", prev)
	}
}

func TestWatchdogDisabledStallsUnderCrash(t *testing.T) {
	// Without deadlines there is no failover trigger: a dead root leader
	// stalls the round, and the driver reports it as Final == nil instead
	// of erroring — stalling is a measured outcome, not a bug.
	m := blobMap(4, 5)
	vm := faultMachine(m)
	g := vm.Grid()
	res, err := RunWithFaults(vm, m, FaultConfig{
		Schedule: fault.At(fault.Crash{Node: g.Index(vm.Hier.Root()), At: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final != nil {
		t.Error("round completed despite dead root and no watchdogs")
	}
}

func TestRunWithFaultsRejectsMismatchedBank(t *testing.T) {
	m := blobMap(4, 5)
	vm := faultMachine(m)
	if _, err := RunWithFaults(vm, m, FaultConfig{Battery: battery.Uniform(8, 100)}); err == nil {
		t.Error("a bank of 8 nodes was accepted on a 16-node grid")
	}
}

func TestNoEventFiresAtDeadNode(t *testing.T) {
	// Property: whatever the crash schedule, once a node is dead no handler
	// runs at it. Checked by wrapping every handler with a liveness assert
	// over a spread of seeds and fractions.
	for _, seedFrac := range []struct {
		seed int64
		frac float64
	}{{1, 0.1}, {2, 0.25}, {3, 0.5}, {4, 0.75}} {
		m := blobMap(8, seedFrac.seed)
		vm := faultMachine(m)
		g := vm.Grid()
		sched := fault.MustRandom(g.N(), seedFrac.frac, 60, seedFrac.seed)
		deadAt := make(map[int]sim.Time, len(sched))
		for _, c := range sched {
			deadAt[c.Node] = c.At
		}
		res, err := RunWithFaults(vm, m, FaultConfig{
			Schedule:      sched,
			LevelDeadline: DefaultLevelDeadline(vm),
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = res
		// The receiver was installed by RunWithFaults; re-wrap is impossible
		// post-hoc, so assert via the machine's own invariant instead: a
		// dead node must show Alive == false and the per-node fired work is
		// visible through the fault counters. The strong per-event check
		// lives in TestHandlersNeverFireAtDeadNodes below.
		for node, at := range deadAt {
			if vm.Alive(g.Coords()[node]) {
				t.Fatalf("seed %d: node %d scheduled dead at %d still alive",
					seedFrac.seed, node, at)
			}
		}
	}
}

func TestHandlersNeverFireAtDeadNodes(t *testing.T) {
	// The direct form of the property: run the raw machine under a crash
	// schedule with instrumented handlers and assert no delivery ever lands
	// on a node after its crash time.
	for seed := int64(1); seed <= 8; seed++ {
		vm, _ := newMachine(8)
		g := vm.Grid()
		k := vm.Kernel()
		sched := fault.MustRandom(g.N(), 0.3, 30, seed)
		dead := make(map[int]sim.Time)
		for _, c := range sched {
			dead[c.Node] = c.At
		}
		vm.SetReceiver(func(to int, _ varch.Message) {
			if at, isDead := dead[to]; isDead && k.Now() >= at {
				t.Fatalf("seed %d: handler fired at node %d at t=%d, dead since %d",
					seed, to, k.Now(), at)
			}
		})
		sched.Arm(k, g.N(), vm.Kill)
		// Blast traffic at every node from every corner across the window.
		rng := rand.New(rand.NewSource(seed))
		vm.SetChannel(fault.NewBernoulli(0.1, rng))
		vm.SetReliability(fault.DefaultReliability())
		for i := 0; i < 200; i++ {
			from := g.Coords()[rng.Intn(g.N())]
			to := g.Coords()[rng.Intn(g.N())]
			k.At(sim.Time(1+rng.Intn(40)), func() { vm.Send(from, to, 1, nil) })
		}
		k.Run()
	}
}
