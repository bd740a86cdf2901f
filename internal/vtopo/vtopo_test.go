package vtopo

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/geom"
	"wsnva/internal/radio"
	"wsnva/internal/sim"
)

// setup builds a dense valid deployment and a fresh protocol over it.
func setup(t *testing.T, side, nodes int, txRange float64, seed int64) (*Protocol, *deploy.Network, *geom.Grid, *cost.Ledger) {
	t.Helper()
	return setupOn(t, side, nodes, txRange, seed, radio.Config{})
}

// setupOn is setup on a medium configured by cfg.
func setupOn(t *testing.T, side, nodes int, txRange float64, seed int64, cfg radio.Config) (*Protocol, *deploy.Network, *geom.Grid, *cost.Ledger) {
	t.Helper()
	g := geom.NewSquareGrid(side, float64(side)*10)
	rng := rand.New(rand.NewSource(seed))
	nw, _, err := deploy.Generate(nodes, g, txRange, deploy.UniformRandom{}, rng, 50)
	if err != nil {
		t.Fatal(err)
	}
	l := cost.NewLedger(cost.NewUniform(), nw.N())
	med := radio.NewMedium(nw, sim.New(), l, rand.New(rand.NewSource(seed+1)), cfg)
	return New(med, g), nw, g, l
}

// switchedLoss loses each delivery with probability one half once on is
// set, and nothing before.
type switchedLoss struct {
	on  bool
	rng *rand.Rand
}

func (s *switchedLoss) Lost(from, to int, size int64) bool { return s.on && s.rng.Float64() < 0.5 }

func TestRunConvergesAndCompletes(t *testing.T) {
	p, _, g, _ := setup(t, 4, 160, 12, 1)
	m := p.Run()
	if !m.Complete {
		t.Fatalf("emulation incomplete: %d unreachable entries", m.Unreachable)
	}
	if m.Broadcasts < int64(160) {
		t.Errorf("every node broadcasts at least once, got %d", m.Broadcasts)
	}
	// Every (node, in-bounds direction) pair must yield a valid forward path.
	for id := 0; id < 160; id++ {
		for d := geom.North; d < geom.NumDirs; d++ {
			adj := p.CellOf(id).Step(d)
			if !g.InBounds(adj) {
				continue
			}
			path, err := p.ForwardPath(id, d)
			if err != nil {
				t.Fatalf("node %d dir %v: %v", id, d, err)
			}
			if p.CellOf(path[len(path)-1]) != adj {
				t.Fatalf("node %d dir %v: path ends in wrong cell", id, d)
			}
		}
	}
}

func TestPathsStayInCellUntilBoundary(t *testing.T) {
	p, _, g, _ := setup(t, 4, 200, 11, 2)
	if m := p.Run(); !m.Complete {
		t.Fatalf("incomplete: %+v", m)
	}
	for id := 0; id < 200; id++ {
		for d := geom.North; d < geom.NumDirs; d++ {
			adj := p.CellOf(id).Step(d)
			if !g.InBounds(adj) {
				continue
			}
			path, err := p.ForwardPath(id, d)
			if err != nil {
				t.Fatal(err)
			}
			// All hops except the last stay in the source cell; the last is
			// in the adjacent cell — the paper's one-boundary property.
			for i, hop := range path {
				if i == len(path)-1 {
					if p.CellOf(hop) != adj {
						t.Fatalf("final hop in cell %v, want %v", p.CellOf(hop), adj)
					}
				} else if p.CellOf(hop) != p.CellOf(id) {
					t.Fatalf("intermediate hop %d left the cell", hop)
				}
			}
		}
	}
}

func TestDirectNeighborsConvergeInstantly(t *testing.T) {
	// Large range: every node has a direct neighbor in each adjacent cell,
	// so no multi-hop discovery is needed and no entries are adopted.
	p, _, _, _ := setup(t, 2, 40, 30, 3)
	m := p.Run()
	if !m.Complete {
		t.Fatal("incomplete")
	}
	if m.Adopted != 0 {
		t.Errorf("adopted %d entries; with full direct coverage there should be none", m.Adopted)
	}
	if m.SetupTime != 0 {
		t.Errorf("setup time %d; base seeding requires no message rounds", m.SetupTime)
	}
}

func TestSuppressionCountsCrossCellTraffic(t *testing.T) {
	p, _, _, _ := setup(t, 4, 160, 12, 4)
	m := p.Run()
	if m.Suppressed == 0 {
		t.Error("dense deployment should suppress some cross-cell receptions")
	}
}

func TestSetupTimeTracksIntraCellPathLength(t *testing.T) {
	// A hand-built chain cell: nodes spaced just within range force
	// multi-hop discovery; setup time grows with the chain length.
	mk := func(chain int) sim.Time {
		g := geom.NewSquareGrid(2, 20)
		// Cell (0,0): a horizontal chain of `chain` nodes; other cells: one
		// node each near centers, plus a node near the boundary of cell
		// (0,0) in each adjacent cell so base entries exist.
		pts := []geom.Point{}
		for i := 0; i < chain; i++ {
			pts = append(pts, geom.Point{X: 0.5 + float64(i)*1.0, Y: 5})
		}
		pts = append(pts,
			geom.Point{X: 10.2, Y: 5},  // cell (1,0), near west boundary
			geom.Point{X: 5, Y: 10.2},  // cell (0,1), near north boundary
			geom.Point{X: 15, Y: 15},   // cell (1,1)
			geom.Point{X: 10.5, Y: 15}, // cell (1,1) spare
		)
		nw := deploy.FromPoints(pts, g.Terrain, 1.05)
		l := cost.NewLedger(cost.NewUniform(), nw.N())
		med := radio.NewMedium(nw, sim.New(), l, rand.New(rand.NewSource(5)), radio.Config{})
		p := New(med, g)
		m := p.Run()
		return m.SetupTime
	}
	short, long := mk(4), mk(10)
	if long <= short {
		t.Errorf("setup time should grow with intra-cell path length: %d vs %d", short, long)
	}
}

func TestRouteCellsDeliversAcrossGrid(t *testing.T) {
	p, nw, _, l := setup(t, 4, 200, 11, 6)
	if m := p.Run(); !m.Complete {
		t.Fatal("incomplete")
	}
	before := l.Units(cost.Tx)
	src := 0
	dst := geom.Coord{Col: 3, Row: 3}
	path, err := p.RouteCells(src, dst, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.CellOf(path[len(path)-1]) != dst {
		t.Errorf("route ended in cell %v", p.CellOf(path[len(path)-1]))
	}
	// Consecutive hops must be radio neighbors.
	cur := src
	for _, next := range path {
		ok := false
		for _, nbr := range nw.Neighbors(cur) {
			if int(nbr) == next {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("hop %d->%d not a radio edge", cur, next)
		}
		cur = next
	}
	if l.Units(cost.Tx) != before+int64(len(path))*5 {
		t.Errorf("tx units: %d -> %d for %d hops of size 5", before, l.Units(cost.Tx), len(path))
	}
	// Routing to own cell is free.
	same, err := p.RouteCells(src, p.CellOf(src), 5)
	if err != nil || len(same) != 0 {
		t.Errorf("self-cell route = %v, %v", same, err)
	}
	if _, err := p.RouteCells(src, geom.Coord{Col: 9, Row: 0}, 1); err == nil {
		t.Error("out-of-bounds destination should error")
	}

	// Tables converge on a lossless channel, then half the deliveries are
	// lost: a route stops at its first lost hop, returning the path so
	// far and an error naming the hop, having charged the hops taken plus
	// the lost transmission.
	loss := &switchedLoss{rng: rand.New(rand.NewSource(6))}
	p, _, _, l = setupOn(t, 4, 200, 11, 6, radio.Config{Channel: loss})
	if m := p.Run(); !m.Complete {
		t.Fatal("incomplete")
	}
	loss.on = true
	lost := 0
	for src := 0; src < 200; src++ {
		_, _, dropped0 := p.med.Stats()
		tx0 := l.Units(cost.Tx)
		path, err := p.RouteCells(src, dst, 5)
		_, _, dropped := p.med.Stats()
		if dropped == dropped0 {
			if err != nil {
				t.Fatalf("src %d: lossless route failed: %v", src, err)
			}
			continue
		}
		lost++
		if err == nil {
			t.Fatalf("src %d: a hop was lost but RouteCells returned path %v and no error", src, path)
		}
		sender := src
		if len(path) > 0 {
			sender = path[len(path)-1]
		}
		if want := fmt.Sprintf("hop %d->", sender); !strings.Contains(err.Error(), want) {
			t.Errorf("src %d: error %q does not name the lost hop from %d", src, err, sender)
		}
		if got, want := l.Units(cost.Tx)-tx0, int64(len(path)+1)*5; got != want {
			t.Errorf("src %d: %d tx units for %d hops taken and one lost, want %d", src, got, len(path), want)
		}
	}
	if lost == 0 {
		t.Fatal("no route lost a hop at loss 0.5")
	}
}

func TestKillAndRepairIncremental(t *testing.T) {
	p, nw, g, _ := setup(t, 4, 240, 11, 7)
	full := p.Run()
	if !full.Complete {
		t.Fatal("initial run incomplete")
	}
	// Kill a node that is not the sole member of its cell.
	members := nw.CellMembers(g)
	victim := -1
	for _, m := range members {
		if len(m) >= 4 {
			victim = m[0]
			break
		}
	}
	if victim == -1 {
		t.Fatal("no crowded cell found")
	}
	p.Kill(victim)
	rep := p.RepairIncremental()
	// Repair must restore completeness and cost less than the initial run.
	if !rep.Complete {
		t.Fatalf("repair left %d unreachable entries", rep.Unreachable)
	}
	if rep.Broadcasts-full.Broadcasts >= full.Broadcasts {
		t.Errorf("incremental repair sent %d broadcasts vs %d for full setup",
			rep.Broadcasts-full.Broadcasts, full.Broadcasts)
	}
	// All paths must avoid the dead node.
	for id := 0; id < nw.N(); id++ {
		if id == victim {
			continue
		}
		for d := geom.North; d < geom.NumDirs; d++ {
			if !g.InBounds(p.CellOf(id).Step(d)) {
				continue
			}
			path, err := p.ForwardPath(id, d)
			if err != nil {
				t.Fatalf("node %d dir %v after repair: %v", id, d, err)
			}
			for _, hop := range path {
				if hop == victim {
					t.Fatalf("path still uses dead node %d", victim)
				}
			}
		}
	}
}

func TestReinforceConvergesUnderLoss(t *testing.T) {
	// With a lossy radio a single Run may leave entries unlearned; periodic
	// re-execution (the paper's remedy) must converge within a few rounds.
	g := geom.NewSquareGrid(4, 40)
	rng := rand.New(rand.NewSource(21))
	nw, _, err := deploy.Generate(200, g, 11, deploy.UniformRandom{}, rng, 100)
	if err != nil {
		t.Fatal(err)
	}
	l := cost.NewLedger(cost.NewUniform(), nw.N())
	med := radio.NewMedium(nw, sim.New(), l, rand.New(rand.NewSource(22)), radio.Config{Loss: 0.3})
	p := New(med, g)
	m := p.Run()
	rounds := 0
	for !m.Complete && rounds < 20 {
		m = p.Reinforce()
		rounds++
	}
	if !m.Complete {
		t.Fatalf("emulation did not converge after %d reinforcement rounds at 30%% loss (%d unreachable)",
			rounds, m.Unreachable)
	}
	t.Logf("converged after %d reinforcement rounds at 30%% loss", rounds)
	// Paths must be valid despite the lossy construction.
	for id := 0; id < nw.N(); id++ {
		for d := geom.North; d < geom.NumDirs; d++ {
			if !g.InBounds(p.CellOf(id).Step(d)) {
				continue
			}
			if _, err := p.ForwardPath(id, d); err != nil {
				t.Fatalf("node %d dir %v: %v", id, d, err)
			}
		}
	}
}

func TestReinforceIsCheapWhenConverged(t *testing.T) {
	p, _, _, _ := setup(t, 4, 160, 12, 9)
	full := p.Run()
	if !full.Complete {
		t.Fatal("incomplete")
	}
	after := p.Reinforce()
	// A converged network re-broadcasts once per node and learns nothing.
	delta := after.Broadcasts - full.Broadcasts
	if delta != int64(160) {
		t.Errorf("reinforcement broadcasts = %d, want one per node", delta)
	}
	if after.Adopted != full.Adopted {
		t.Error("converged reinforcement should adopt nothing")
	}
	if after.SetupTime != 0 {
		t.Errorf("no table changed; SetupTime = %d", after.SetupTime)
	}
}

func TestTableAccessors(t *testing.T) {
	p, _, _, _ := setup(t, 2, 40, 30, 8)
	p.Run()
	tab := p.Table(0)
	for d := geom.North; d < geom.NumDirs; d++ {
		if tab[d] != p.NextHop(0, d) {
			t.Error("Table and NextHop disagree")
		}
	}
}

// entrySetMatrix snapshots which (node, dir) entries are set — the
// protocol's fixpoint is characterized by this matrix (which neighbor an
// entry names depends on adoption order, the set-ness does not).
func entrySetMatrix(p *Protocol, n int) [][geom.NumDirs]bool {
	out := make([][geom.NumDirs]bool, n)
	for id := 0; id < n; id++ {
		for d := geom.North; d < geom.NumDirs; d++ {
			out[id][d] = p.NextHop(id, d) != NoNode
		}
	}
	return out
}

func TestKillReviveRepairRestoresFixpoint(t *testing.T) {
	// Kill a set, repair, revive it, repair again: the entry-set matrix
	// must return to the never-killed fixpoint, and every path must be
	// valid — the bounded-recovery invariant's table-consistency half.
	p, nw, g, _ := setup(t, 4, 240, 11, 7)
	if m := p.Run(); !m.Complete {
		t.Fatal("initial run incomplete")
	}
	before := entrySetMatrix(p, nw.N())

	members := nw.CellMembers(g)
	var victims []int
	for _, m := range members {
		if len(m) >= 4 {
			victims = append(victims, m[0], m[1])
			break
		}
	}
	if victims == nil {
		t.Fatal("no crowded cell found")
	}
	p.Kill(victims...)
	down := p.RepairAround(victims...)
	if !down.Complete {
		t.Fatalf("repair after kill left %d unreachable", down.Unreachable)
	}
	p.Revive(victims...)
	up := p.RepairAround(victims...)
	if !up.Complete {
		t.Fatalf("repair after revive left %d unreachable", up.Unreachable)
	}
	after := entrySetMatrix(p, nw.N())
	for id := range before {
		if before[id] != after[id] {
			t.Errorf("node %d entry-set %v after revive, want %v", id, after[id], before[id])
		}
	}
	for id := 0; id < nw.N(); id++ {
		for d := geom.North; d < geom.NumDirs; d++ {
			if !g.InBounds(p.CellOf(id).Step(d)) {
				continue
			}
			if _, err := p.ForwardPath(id, d); err != nil {
				t.Fatalf("node %d dir %v after revive+repair: %v", id, d, err)
			}
		}
	}
}

func TestRepairAroundTouchedCellsAreLocal(t *testing.T) {
	// The touched set must contain the victim's cell and stay within
	// the disturbance's neighborhood — never the whole grid.
	p, nw, g, _ := setup(t, 6, 540, 11, 3)
	if m := p.Run(); !m.Complete {
		t.Fatal("initial run incomplete")
	}
	members := nw.CellMembers(g)
	victim := -1
	for _, m := range members {
		if len(m) >= 4 {
			victim = m[0]
			break
		}
	}
	p.Kill(victim)
	rep := p.RepairAround(victim)
	if rep.TouchedCells == 0 || rep.TouchedCells != len(rep.Touched) {
		t.Fatalf("TouchedCells=%d len(Touched)=%d", rep.TouchedCells, len(rep.Touched))
	}
	vc := p.CellOf(victim)
	foundOwn := false
	for _, c := range rep.Touched {
		dc, dr := c.Col-vc.Col, c.Row-vc.Row
		if dc < 0 {
			dc = -dc
		}
		if dr < 0 {
			dr = -dr
		}
		if dc > 2 || dr > 2 {
			t.Errorf("touched cell %v is %d,%d cells from victim cell %v", c, dc, dr, vc)
		}
		if c == vc {
			foundOwn = true
		}
	}
	if !foundOwn {
		t.Error("victim's own cell not in touched set")
	}
	if rep.TouchedCells >= g.N() {
		t.Errorf("repair touched all %d cells", rep.TouchedCells)
	}
	// RepairIncremental reports touched cells too (the satellite fix).
	p2, nw2, g2, _ := setup(t, 4, 240, 11, 7)
	p2.Run()
	m2 := nw2.CellMembers(g2)
	var v2 int
	for _, m := range m2 {
		if len(m) >= 4 {
			v2 = m[0]
			break
		}
	}
	p2.Kill(v2)
	ri := p2.RepairIncremental()
	if ri.TouchedCells == 0 || len(ri.Touched) != ri.TouchedCells {
		t.Errorf("RepairIncremental TouchedCells=%d Touched=%v", ri.TouchedCells, ri.Touched)
	}
}

func TestRepairBroadcastHookSeesEveryBroadcast(t *testing.T) {
	p, nw, g, _ := setup(t, 4, 240, 11, 7)
	full := p.Run()
	members := nw.CellMembers(g)
	victim := -1
	for _, m := range members {
		if len(m) >= 4 {
			victim = m[0]
			break
		}
	}
	p.Kill(victim)
	var hooked int64
	p.SetOnBroadcast(func(id int) {
		if id == victim {
			t.Errorf("dead node %d broadcast during repair", victim)
		}
		hooked++
	})
	rep := p.RepairAround(victim)
	p.SetOnBroadcast(nil)
	if got := rep.Broadcasts - full.Broadcasts; got != hooked {
		t.Errorf("hook saw %d broadcasts, metrics counted %d", hooked, got)
	}
	if hooked == 0 {
		t.Error("repair sent no broadcasts")
	}
}
