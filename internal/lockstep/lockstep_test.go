package lockstep

import (
	"math/rand"
	"testing"

	"wsnva/internal/cost"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/regions"
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
	// Same routes, same sizes, same charges: every node's energy, the
	// message and hop counts and the rule firings must equal the uniform
	// DES machine's, whatever the per-hop latency.
	for _, side := range []int{2, 8, 16} {
		for seed := int64(1); seed <= 3; seed++ {
			m := blobMap(side, 17*seed)
			lockRes, lockLedger := run(t, m)

			h := varch.MustHierarchy(m.Grid)
			desLedger := cost.NewLedger(cost.NewUniform(), m.Grid.N())
			vm := varch.NewMachine(h, sim.New(), desLedger)
			desRes, err := synth.RunOnMachine(vm, m)
			if err != nil {
				t.Fatal(err)
			}
			if !lockRes.Final.Equal(desRes.Final) {
				t.Errorf("side %d seed %d: lockstep and DES disagree on the final summary", side, seed)
			}
			for i := 0; i < m.Grid.N(); i++ {
				if lockLedger.Energy(i) != desLedger.Energy(i) {
					t.Errorf("side %d seed %d node %d: energy lockstep %d, DES %d",
						side, seed, i, lockLedger.Energy(i), desLedger.Energy(i))
				}
			}
			msgs, hops := vm.Stats()
			if lockRes.Messages != msgs || lockRes.HopsMoved != hops {
				t.Errorf("side %d seed %d: lockstep %d msgs / %d hops, DES %d / %d",
					side, seed, lockRes.Messages, lockRes.HopsMoved, msgs, hops)
			}
			if lockRes.RuleFirings != desRes.RuleFirings {
				t.Errorf("side %d seed %d: firings lockstep %d, DES %d",
					side, seed, lockRes.RuleFirings, desRes.RuleFirings)
			}
		}
	}
}

func TestRoundsAreThetaSqrtN(t *testing.T) {
	// A step is one hop, so the round count is the critical path of the
	// quad-tree reduction: at level l the farthest child sits 2^(l-1) hops
	// from its leader along each axis, and the levels sum to 2·side − 2.
	// The measure must not depend on the map: a blob field, an empty map, a
	// solid map (the largest summaries) and a single feature cell (the
	// smallest) all take exactly that many rounds.
	for side := 1; side <= 64; side *= 2 {
		want := 2*side - 2
		g := geom.NewSquareGrid(side, float64(side))
		single := field.FromBits(g, make([]bool, g.N()))
		single.Bits[0] = true
		for name, m := range map[string]*field.BinaryMap{
			"blob":   blobMap(side, int64(side)*7),
			"empty":  field.FromBits(g, make([]bool, g.N())),
			"solid":  field.Threshold(field.Constant{Value: 1}, g, 0.5, 0),
			"single": single,
		} {
			res, _ := run(t, m)
			if res.Rounds != want {
				t.Errorf("side %d %s map: %d rounds, want 2·side−2 = %d", side, name, res.Rounds, want)
			}
		}
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
