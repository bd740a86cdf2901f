package binding

import (
	"testing"

	"wsnva/internal/cost"
)

func TestRotatorSpreadsLeadership(t *testing.T) {
	med, nw, g, l := setup(t, 4, 160, 12, 31)
	r, err := NewRotator(med, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Current().Leaders) != g.N() {
		t.Fatalf("initial binding has %d leaders", len(r.Current().Leaders))
	}
	initialDistinct := r.DistinctLeaders()
	for round := 0; round < 5; round++ {
		prev := r.Current().Leaders
		// Simulate a duty cycle: incumbents spend energy.
		for _, id := range prev {
			l.Charge(id, cost.Compute, 100)
		}
		res, err := r.Rotate()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := res.Verify(nw, g); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// No cell may keep its incumbent.
		for cell, id := range r.Current().Leaders {
			if prev[cell] == id {
				t.Errorf("round %d: cell %v kept leader %d", round, cell, id)
			}
		}
	}
	if r.Rounds() != 5 {
		t.Errorf("rounds = %d", r.Rounds())
	}
	if r.DistinctLeaders() <= initialDistinct {
		t.Errorf("rotation did not spread leadership: %d -> %d", initialDistinct, r.DistinctLeaders())
	}
	if s := r.Spread(); s < 1 {
		t.Errorf("spread = %v", s)
	}
}

func TestRotatorPrefersRestedNodes(t *testing.T) {
	med, nw, g, l := setup(t, 2, 40, 30, 33)
	r, err := NewRotator(med, g)
	if err != nil {
		t.Fatal(err)
	}
	// Drain every node except one per cell heavily; rotation must pick the
	// rested nodes.
	members := nw.CellMembers(g)
	rested := map[int]bool{}
	for _, m := range members {
		pick := -1
		for _, id := range m {
			if !rested[id] && id != r.Current().Leaders[g.CellOf(nw.Nodes[id].Pos)] {
				pick = id
				break
			}
		}
		if pick == -1 {
			t.Skip("cell too small for the scenario")
		}
		rested[pick] = true
		for _, id := range m {
			if id != pick {
				l.Charge(id, cost.Compute, int64(1000+id))
			}
		}
	}
	if _, err := r.Rotate(); err != nil {
		t.Fatal(err)
	}
	for cell, id := range r.Current().Leaders {
		if !rested[id] {
			t.Errorf("cell %v elected drained node %d", cell, id)
		}
	}
}
