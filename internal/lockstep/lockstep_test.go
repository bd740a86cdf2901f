package lockstep

import (
	"math/rand"
	"testing"

	"wsnva/internal/cost"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/regions"
	"wsnva/internal/routing"
	"wsnva/internal/sim"
	"wsnva/internal/synth"
	"wsnva/internal/varch"
)

func run(t *testing.T, m *field.BinaryMap) (*Result, *cost.Ledger) {
	t.Helper()
	h := varch.MustHierarchy(m.Grid)
	l := cost.NewLedger(cost.NewUniform(), m.Grid.N())
	res, err := New(h, l).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	return res, l
}

func blobMap(side int, seed int64) *field.BinaryMap {
	g := geom.NewSquareGrid(side, float64(side))
	return field.Threshold(field.RandomBlobs(3, g.Terrain, 1, 2, rand.New(rand.NewSource(seed))), g, 0.5, 0)
}

func TestLockstepMatchesGroundTruth(t *testing.T) {
	for _, side := range []int{2, 4, 8, 16} {
		m := blobMap(side, int64(side)*3)
		res, _ := run(t, m)
		truth := regions.Label(m)
		if res.Final.Count() != truth.Count {
			t.Errorf("side %d: count %d vs truth %d", side, res.Final.Count(), truth.Count)
		}
		if !res.Final.Complete() {
			t.Errorf("side %d: incomplete coverage", side)
		}
	}
}

func TestLockstepAgreesWithDESMachine(t *testing.T) {
	m := blobMap(8, 17)
	lockRes, lockLedger := run(t, m)

	h := varch.MustHierarchy(m.Grid)
	desLedger := cost.NewLedger(cost.NewUniform(), m.Grid.N())
	vm := varch.NewMachine(h, sim.New(), desLedger)
	desRes, err := synth.RunOnMachine(vm, m)
	if err != nil {
		t.Fatal(err)
	}
	if !lockRes.Final.Equal(desRes.Final) {
		t.Error("lockstep and DES disagree on the final summary")
	}
	// Same routes, same sizes, same charges: total energy must be identical.
	if lockLedger.Metrics().Total != desLedger.Metrics().Total {
		t.Errorf("energy: lockstep %d, DES %d", lockLedger.Metrics().Total, desLedger.Metrics().Total)
	}
	if lockRes.RuleFirings != desRes.RuleFirings {
		t.Errorf("firings: lockstep %d, DES %d", lockRes.RuleFirings, desRes.RuleFirings)
	}
}

func TestRoundsAreThetaSqrtN(t *testing.T) {
	// With bounded feature content the round count is the pure distance
	// measure: sum over levels l of the worst child->parent distance
	// 2(2^(l-1) - ... ), plus one delivery round per level. For a grid of
	// side S it must land in [S, 4S] and roughly double per side doubling.
	rounds := func(side int) int {
		g := geom.NewSquareGrid(side, float64(side))
		m := field.FromBits(g, make([]bool, g.N()))
		m.Bits[0] = true
		res, _ := run(t, m)
		return res.Rounds
	}
	r4, r8, r16, r32 := rounds(4), rounds(8), rounds(16), rounds(32)
	for side, r := range map[int]int{4: r4, 8: r8, 16: r16, 32: r32} {
		if r < side || r > 4*side {
			t.Errorf("side %d: %d rounds, outside [side, 4*side]", side, r)
		}
	}
	for _, pair := range [][2]int{{r4, r8}, {r8, r16}, {r16, r32}} {
		ratio := float64(pair[1]) / float64(pair[0])
		if ratio < 1.5 || ratio > 2.5 {
			t.Errorf("round ratio %v per side doubling, want ~2", ratio)
		}
	}
}

func TestRoundsIndependentOfMessageSize(t *testing.T) {
	// The step measure must not depend on summary sizes: a solid field
	// (huge summaries) takes the same rounds as a single-cell field on the
	// same grid, because both move one hop per round.
	side := 16
	g1 := geom.NewSquareGrid(side, float64(side))
	solid := field.Threshold(field.Constant{Value: 1}, g1, 0.5, 0)
	resSolid, _ := run(t, solid)
	g2 := geom.NewSquareGrid(side, float64(side))
	tiny := field.FromBits(g2, make([]bool, g2.N()))
	tiny.Bits[0] = true
	resTiny, _ := run(t, tiny)
	if resSolid.Rounds != resTiny.Rounds {
		t.Errorf("rounds depend on payload size: solid %d vs tiny %d", resSolid.Rounds, resTiny.Rounds)
	}
}

func TestHopAccounting(t *testing.T) {
	m := blobMap(8, 23)
	res, _ := run(t, m)
	// Every injected message contributes its full route length in hops.
	h := varch.MustHierarchy(m.Grid)
	var wantHops int64
	for level := 1; level <= h.Levels; level++ {
		for _, leader := range h.Leaders(level) {
			for _, ch := range h.Children(leader, level) {
				if ch != leader {
					wantHops += int64(ch.Manhattan(leader))
				}
			}
		}
	}
	if res.HopsMoved != wantHops {
		t.Errorf("hops = %d, want %d", res.HopsMoved, wantHops)
	}
	if res.Messages != 3*int64(len(h.Leaders(1)))+3*int64(len(h.Leaders(2)))+3 {
		t.Errorf("messages = %d", res.Messages)
	}
}

func TestTrivialGridLockstep(t *testing.T) {
	g := geom.NewSquareGrid(1, 1)
	m := field.Parse(g, "#")
	res, l := run(t, m)
	if res.Rounds != 0 || res.Messages != 0 {
		t.Errorf("1x1: rounds %d messages %d", res.Rounds, res.Messages)
	}
	if res.Final.Count() != 1 {
		t.Error("1x1 labeling wrong")
	}
	if l.Units(cost.Tx) != 0 {
		t.Error("no transmissions expected")
	}
}

func TestXYRouteMirrorsRoutingPackage(t *testing.T) {
	g := geom.NewSquareGrid(8, 8)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 200; i++ {
		src := geom.Coord{Col: rng.Intn(8), Row: rng.Intn(8)}
		dst := geom.Coord{Col: rng.Intn(8), Row: rng.Intn(8)}
		a := xyRoute(g, src, dst)
		b := routing.XYRoute(g, src, dst)
		if len(a) != len(b) {
			t.Fatalf("route lengths differ for %v->%v", src, dst)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("routes differ at %d for %v->%v", j, src, dst)
			}
		}
	}
}

func TestRunProgramTrackingEpoch(t *testing.T) {
	// The generic entry point runs a non-exfiltrating program (tracking):
	// the round loop ends at quiescence and the moments land in the root's
	// state, matching the DES machine exactly.
	g := geom.NewSquareGrid(8, 8)
	h := varch.MustHierarchy(g)
	strength := func(c geom.Coord) float64 {
		if c.Col >= 3 && c.Col <= 4 && c.Row >= 3 && c.Row <= 4 {
			return 1
		}
		return 0
	}
	desVM := varch.NewMachine(h, sim.New(), cost.NewLedger(cost.NewUniform(), g.N()))
	desEst, err := synth.RunTrackingEpoch(desVM, strength)
	if err != nil {
		t.Fatal(err)
	}
	l := cost.NewLedger(cost.NewUniform(), g.N())
	res, insts, err := RunProgram(New(h, l), synth.TrackingProgram(h, strength))
	if err != nil {
		t.Fatal(err)
	}
	if res.Final != nil {
		t.Error("tracking exfiltrates nothing")
	}
	root := insts[g.Index(h.Root())].State
	w, wx := root.W[h.Levels], root.WX[h.Levels]
	if w == 0 {
		t.Fatal("no detection mass reached the root")
	}
	if got := float64(wx) / float64(w); got != desEst.Col {
		t.Errorf("lockstep centroid col %v, DES %v", got, desEst.Col)
	}
	if res.Rounds == 0 {
		t.Error("reports had to travel")
	}
}

func TestGridMismatchError(t *testing.T) {
	g := geom.NewSquareGrid(4, 4)
	h := varch.MustHierarchy(g)
	l := cost.NewLedger(cost.NewUniform(), g.N())
	other := geom.NewSquareGrid(4, 4)
	m := field.Threshold(field.Constant{Value: 1}, other, 0.5, 0)
	if _, err := New(h, l).Run(m); err == nil {
		t.Error("grid mismatch should error")
	}
}

func TestLedgerSizePanic(t *testing.T) {
	g := geom.NewSquareGrid(4, 4)
	h := varch.MustHierarchy(g)
	defer func() {
		if recover() == nil {
			t.Error("ledger mismatch should panic")
		}
	}()
	New(h, cost.NewLedger(cost.NewUniform(), 3))
}
