package binding

import (
	"math"
	"math/rand"
	"testing"

	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/geom"
	"wsnva/internal/radio"
	"wsnva/internal/sim"
)

func setup(t *testing.T, side, nodes int, txRange float64, seed int64) (*radio.Medium, *deploy.Network, *geom.Grid, *cost.Ledger) {
	t.Helper()
	g := geom.NewSquareGrid(side, float64(side)*10)
	rng := rand.New(rand.NewSource(seed))
	nw, _, err := deploy.Generate(nodes, g, txRange, deploy.UniformRandom{}, rng, 50)
	if err != nil {
		t.Fatal(err)
	}
	l := cost.NewLedger(cost.NewUniform(), nw.N())
	med := radio.NewMedium(nw, sim.New(), l, rand.New(rand.NewSource(seed+1)), radio.Config{})
	return med, nw, g, l
}

func TestElectionFindsClosestToCenter(t *testing.T) {
	med, nw, g, _ := setup(t, 4, 160, 12, 1)
	metric := MinDistance{Network: nw, Grid: g}
	res := newElection(med, g, metric).run()
	if err := res.Verify(nw, g); err != nil {
		t.Fatal(err)
	}
	if len(res.Leaders) != g.N() {
		t.Errorf("%d leaders for %d cells", len(res.Leaders), g.N())
	}
	// Sanity beyond Verify: leader score <= every member's score.
	members := nw.CellMembers(g)
	for idx, m := range members {
		leader := res.Leaders[g.CoordOf(idx)]
		for _, id := range m {
			if metric.Score(id) < metric.Score(leader) {
				t.Errorf("cell %v: member %d closer than leader %d", g.CoordOf(idx), id, leader)
			}
		}
	}
}

func TestElectionBroadcastCounts(t *testing.T) {
	med, nw, g, _ := setup(t, 4, 160, 12, 2)
	res := newElection(med, g, MinDistance{Network: nw, Grid: g}).run()
	if res.Broadcasts < int64(nw.N()) {
		t.Errorf("every node broadcasts at least once: %d < %d", res.Broadcasts, nw.N())
	}
	if res.Suppressed == 0 {
		t.Error("dense deployment should suppress cross-cell traffic")
	}
	// Demotions: exactly n - N nodes must stand down (one survivor per cell).
	want := int64(nw.N() - g.N())
	if res.Demotions != want {
		t.Errorf("demotions = %d, want %d", res.Demotions, want)
	}
}

func TestSingletonCellsElectThemselves(t *testing.T) {
	g := geom.NewSquareGrid(2, 20)
	pts := []geom.Point{{X: 3, Y: 3}, {X: 17, Y: 3}, {X: 3, Y: 17}, {X: 17, Y: 17}}
	nw := deploy.FromPoints(pts, g.Terrain, 30)
	l := cost.NewLedger(cost.NewUniform(), nw.N())
	med := radio.NewMedium(nw, sim.New(), l, rand.New(rand.NewSource(3)), radio.Config{})
	metric := MinDistance{Network: nw, Grid: g}
	res := newElection(med, g, metric).run()
	if err := res.Verify(nw, g); err != nil {
		t.Fatal(err)
	}
	for idx, id := range []int{0, 1, 2, 3} {
		if res.Leaders[g.CoordOf(idx)] != id {
			t.Errorf("cell %d: leader %d, want %d", idx, res.Leaders[g.CoordOf(idx)], id)
		}
	}
	// No demotions: every node is alone in its cell.
	if res.Demotions != 0 {
		t.Errorf("demotions = %d", res.Demotions)
	}
}

func TestMaxResidualMetric(t *testing.T) {
	med, nw, g, l := setup(t, 2, 40, 30, 4)
	// Drain energy from some nodes; the election must avoid them.
	members := nw.CellMembers(g)
	for _, m := range members {
		// Drain everyone except the last member of each cell.
		for _, id := range m[:len(m)-1] {
			l.Charge(id, cost.Tx, int64(10+id))
		}
	}
	metric := MaxResidual{Ledger: l}
	res := newElection(med, g, metric).run()
	if err := res.Verify(nw, g); err != nil {
		t.Fatal(err)
	}
	for idx, m := range members {
		leader := res.Leaders[g.CoordOf(idx)]
		if leader != m[len(m)-1] {
			t.Errorf("cell %v: leader %d is not the undrained node %d", g.CoordOf(idx), leader, m[len(m)-1])
		}
	}
	if metric.Name() != "max-residual" {
		t.Error("metric name")
	}
}

func TestExcludingMetricForRotation(t *testing.T) {
	med, nw, g, _ := setup(t, 2, 60, 25, 5)
	base := MinDistance{Network: nw, Grid: g}
	first := newElection(med, g, base).run()
	if err := first.Verify(nw, g); err != nil {
		t.Fatal(err)
	}
	// Second round excluding the first-round leaders: all new leaders.
	excluded := make(map[int]bool)
	for _, id := range first.Leaders {
		excluded[id] = true
	}
	rot := Excluding{Inner: base, Excluded: excluded}
	if math.IsInf(rot.Score(first.Leaders[g.CoordOf(0)]), 1) != true {
		t.Error("excluded node should score +Inf")
	}
	med2, nw2, g2, _ := setup(t, 2, 60, 25, 5) // identical deployment (same seed)
	rot2 := Excluding{Inner: MinDistance{Network: nw2, Grid: g2}, Excluded: excluded}
	second := newElection(med2, g2, rot2).run()
	if err := second.Verify(nw2, g2); err != nil {
		t.Fatal(err)
	}
	for cell, id := range second.Leaders {
		if excluded[id] {
			t.Errorf("cell %v re-elected excluded node %d", cell, id)
		}
	}
	if rot.Name() != "min-distance-rotated" {
		t.Error("rotated metric name")
	}
}

func TestBindHelper(t *testing.T) {
	med, nw, g, _ := setup(t, 4, 160, 12, 6)
	b, res, err := Bind(med, g, MinDistance{Network: nw, Grid: g})
	if err != nil {
		t.Fatal(err)
	}
	if b.Grid != g || len(b.Leaders) != g.N() {
		t.Error("binding incomplete")
	}
	if res.Convergence < 0 {
		t.Error("negative convergence time")
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	med, nw, g, _ := setup(t, 2, 40, 30, 7)
	metric := MinDistance{Network: nw, Grid: g}
	res := newElection(med, g, metric).run()
	// Corrupt: wrong leader.
	good := res.Leaders[geom.Coord{Col: 0, Row: 0}]
	members := nw.CellMembers(g)[0]
	for _, id := range members {
		if id != good {
			res.Leaders[geom.Coord{Col: 0, Row: 0}] = id
			break
		}
	}
	if err := res.Verify(nw, g); err == nil {
		t.Error("Verify should catch a wrong leader")
	}
	// Corrupt: missing leader.
	delete(res.Leaders, geom.Coord{Col: 0, Row: 0})
	if err := res.Verify(nw, g); err == nil {
		t.Error("Verify should catch a missing leader")
	}
	// Corrupt: conflict.
	res.Leaders[geom.Coord{Col: 0, Row: 0}] = good
	res.Conflicts = append(res.Conflicts, "synthetic")
	if err := res.Verify(nw, g); err == nil {
		t.Error("Verify should fail on conflicts")
	}
}

func TestMinDistanceName(t *testing.T) {
	if (MinDistance{}).Name() != "min-distance" {
		t.Error("name")
	}
}
