package deploy

import (
	"math/rand"
	"testing"

	"wsnva/internal/geom"
)

func terrain(side float64) geom.Rect { return geom.Rect{MinX: 0, MinY: 0, MaxX: side, MaxY: side} }

func TestUniformPlacementInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := terrain(100)
	pts := UniformRandom{}.Place(500, tr, rng)
	if len(pts) != 500 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if !tr.Contains(p) {
			t.Fatalf("point %v out of terrain", p)
		}
	}
}

func TestPerturbedGridPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := terrain(100)
	// Zero jitter: nodes sit exactly on lattice centers.
	pts := PerturbedGrid{Jitter: 0}.Place(16, tr, rng)
	if len(pts) != 16 {
		t.Fatalf("got %d points", len(pts))
	}
	seen := map[geom.Point]bool{}
	for _, p := range pts {
		if !tr.Contains(p) {
			t.Fatalf("point %v out of terrain", p)
		}
		seen[p] = true
	}
	if len(seen) != 16 {
		t.Error("zero-jitter lattice points should be distinct")
	}
	// Non-square count still returns exactly n in-bounds points.
	pts = PerturbedGrid{Jitter: 0.4}.Place(10, tr, rng)
	if len(pts) != 10 {
		t.Fatalf("got %d points for n=10", len(pts))
	}
	for _, p := range pts {
		if !tr.Contains(p) {
			t.Fatalf("point %v out of terrain", p)
		}
	}
}

func TestClusteredPlacementInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := terrain(50)
	pts := Clustered{Clusters: 3, Spread: 0.1}.Place(200, tr, rng)
	for _, p := range pts {
		if !tr.Contains(p) {
			t.Fatalf("point %v out of terrain", p)
		}
	}
	// Default cluster count when unset.
	pts = Clustered{Spread: 0.05}.Place(10, tr, rng)
	if len(pts) != 10 {
		t.Fatalf("got %d points", len(pts))
	}
}

func TestWithHoleKeepsNodesOut(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := terrain(100)
	hole := geom.Rect{MinX: 30, MinY: 30, MaxX: 70, MaxY: 70}
	p := WithHole{Inner: UniformRandom{}, Hole: hole}
	pts := p.Place(400, tr, rng)
	if len(pts) != 400 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, pt := range pts {
		if hole.Contains(pt) {
			t.Fatalf("point %v inside the hole", pt)
		}
		if !tr.Contains(pt) {
			t.Fatalf("point %v outside terrain", pt)
		}
	}
	if p.Name() != "uniform+hole" {
		t.Errorf("name = %q", p.Name())
	}
}

func TestWithHoleBreaksOccupancy(t *testing.T) {
	// A hole over the middle cells guarantees occupancy failure — the
	// scenario where the tree topology takes over from the grid.
	rng := rand.New(rand.NewSource(10))
	g := geom.NewSquareGrid(4, 40)
	hole := geom.Rect{MinX: 10, MinY: 10, MaxX: 30, MaxY: 30}
	nw := New(160, g.Terrain, 12, WithHole{Inner: UniformRandom{}, Hole: hole}, rng)
	if nw.OccupancyOK(g) {
		t.Error("hole over the four middle cells must break occupancy")
	}
}

func TestPlacementNames(t *testing.T) {
	if (UniformRandom{}).Name() != "uniform" {
		t.Error("uniform name")
	}
	if (PerturbedGrid{Jitter: 0.25}).Name() != "grid-j0.25" {
		t.Errorf("got %q", (PerturbedGrid{Jitter: 0.25}).Name())
	}
	if (Clustered{Clusters: 5}).Name() != "clustered-5" {
		t.Errorf("got %q", Clustered{Clusters: 5}.Name())
	}
}

func TestNeighborsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nw := New(300, terrain(100), 12, UniformRandom{}, rng)
	for i := 0; i < nw.N(); i++ {
		want := map[int32]bool{}
		for j := 0; j < nw.N(); j++ {
			if j != i && nw.Nodes[i].Pos.Dist(nw.Nodes[j].Pos) <= nw.Range {
				want[int32(j)] = true
			}
		}
		got := nw.Neighbors(i)
		if len(got) != len(want) {
			t.Fatalf("node %d: got %d neighbors, want %d", i, len(got), len(want))
		}
		for _, j := range got {
			if !want[j] {
				t.Fatalf("node %d: spurious neighbor %d", i, j)
			}
		}
	}
}

func TestNeighborsSortedAndSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nw := New(200, terrain(60), 10, UniformRandom{}, rng)
	for i := 0; i < nw.N(); i++ {
		nbrs := nw.Neighbors(i)
		for k := 1; k < len(nbrs); k++ {
			if nbrs[k-1] >= nbrs[k] {
				t.Fatalf("node %d neighbors not sorted: %v", i, nbrs)
			}
		}
		for _, j := range nbrs {
			back := false
			for _, b := range nw.Neighbors(int(j)) {
				if int(b) == i {
					back = true
				}
			}
			if !back {
				t.Fatalf("adjacency not symmetric: %d->%d", i, j)
			}
		}
	}
}

func TestDegreeAndAvgDegree(t *testing.T) {
	// Three collinear nodes spaced by 1, range 1: chain topology.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}}
	nw := FromPoints(pts, terrain(10), 1.0)
	if nw.Degree(0) != 1 || nw.Degree(1) != 2 || nw.Degree(2) != 1 {
		t.Errorf("degrees = %d,%d,%d", nw.Degree(0), nw.Degree(1), nw.Degree(2))
	}
	if nw.AvgDegree() != 4.0/3.0 {
		t.Errorf("AvgDegree = %v", nw.AvgDegree())
	}
}

func TestConnected(t *testing.T) {
	chain := FromPoints([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}}, terrain(10), 1.0)
	if !chain.Connected() {
		t.Error("chain should be connected")
	}
	split := FromPoints([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 5, Y: 0}}, terrain(10), 1.0)
	if split.Connected() {
		t.Error("split network should not be connected")
	}
}

func TestCellMembersPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := geom.NewSquareGrid(4, 40)
	nw := New(160, g.Terrain, 15, UniformRandom{}, rng)
	members := nw.CellMembers(g)
	total := 0
	seen := map[int]bool{}
	for idx, m := range members {
		for _, id := range m {
			if seen[id] {
				t.Fatalf("node %d in two cells", id)
			}
			seen[id] = true
			total++
			if got := g.Index(g.CellOf(nw.Nodes[id].Pos)); got != idx {
				t.Fatalf("node %d misfiled: cell %d vs %d", id, got, idx)
			}
		}
	}
	if total != nw.N() {
		t.Errorf("cells hold %d nodes, network has %d", total, nw.N())
	}
}

func TestOccupancyAndCellConnectivity(t *testing.T) {
	g := geom.NewSquareGrid(2, 20)
	// One node per cell: occupied, trivially cell-connected.
	pts := []geom.Point{{X: 5, Y: 5}, {X: 15, Y: 5}, {X: 5, Y: 15}, {X: 15, Y: 15}}
	nw := FromPoints(pts, g.Terrain, 30)
	if !nw.OccupancyOK(g) {
		t.Error("all cells occupied; OccupancyOK should be true")
	}
	if !nw.CellsConnected(g) {
		t.Error("singleton cells are connected")
	}
	// Remove one cell's node.
	nw = FromPoints(pts[:3], g.Terrain, 30)
	if nw.OccupancyOK(g) {
		t.Error("an empty cell should fail occupancy")
	}
	if nw.CellsConnected(g) {
		t.Error("an empty cell should fail CellsConnected")
	}
	// Two nodes in one cell, out of range of each other within the cell.
	pts = []geom.Point{{X: 1, Y: 1}, {X: 9, Y: 9}, {X: 15, Y: 5}, {X: 5, Y: 15}, {X: 15, Y: 15}}
	nw = FromPoints(pts, g.Terrain, 6)
	if nw.CellsConnected(g) {
		t.Error("cell with two disconnected members should fail")
	}
}

func TestMaxIntraCellPathLen(t *testing.T) {
	g := geom.NewSquareGrid(1, 10)
	// A 4-node chain inside the single cell, spacing 2, range 2: path len 3.
	pts := []geom.Point{{X: 1, Y: 5}, {X: 3, Y: 5}, {X: 5, Y: 5}, {X: 7, Y: 5}}
	nw := FromPoints(pts, g.Terrain, 2.0)
	if got := nw.MaxIntraCellPathLen(g); got != 3 {
		t.Errorf("MaxIntraCellPathLen = %d, want 3", got)
	}
	// Singleton cells contribute 0.
	g2 := geom.NewSquareGrid(2, 20)
	nw2 := FromPoints([]geom.Point{{X: 5, Y: 5}, {X: 15, Y: 5}, {X: 5, Y: 15}, {X: 15, Y: 15}}, g2.Terrain, 30)
	if got := nw2.MaxIntraCellPathLen(g2); got != 0 {
		t.Errorf("singleton cells: MaxIntraCellPathLen = %d, want 0", got)
	}
}

func TestGenerateDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := geom.NewSquareGrid(4, 40)
	// Dense: 10 nodes/cell, range > cell diagonal.
	nw, attempts, err := Generate(160, g, 15, UniformRandom{}, rng, 20)
	if err != nil {
		t.Fatal(err)
	}
	if attempts < 1 {
		t.Error("attempts should be >= 1")
	}
	if !nw.Connected() || !nw.OccupancyOK(g) || !nw.CellsConnected(g) {
		t.Error("Generate returned a network violating its own postconditions")
	}
}

func TestGenerateFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := geom.NewSquareGrid(8, 80)
	// 8 nodes for 64 cells: occupancy can never hold.
	if _, _, err := Generate(8, g, 5, UniformRandom{}, rng, 5); err == nil {
		t.Error("expected failure for sparse deployment")
	}
}

func TestGenerateAcrossPlacements(t *testing.T) {
	// Generate must qualify deployments from every placement family given
	// enough density; the qualifying postconditions hold regardless of how
	// the points were drawn.
	g := geom.NewSquareGrid(4, 40)
	placements := []Placement{
		UniformRandom{},
		PerturbedGrid{Jitter: 0.45},
		WithHole{Inner: UniformRandom{}, Hole: geom.Rect{MinX: 14, MinY: 14, MaxX: 26, MaxY: 26}},
	}
	for _, p := range placements {
		rng := rand.New(rand.NewSource(41))
		nw, _, err := Generate(240, g, 13, p, rng, 200)
		if err != nil {
			t.Errorf("%s: %v", p.Name(), err)
			continue
		}
		if !nw.Connected() || !nw.CellsConnected(g) || !nw.AdjacentCellsLinked(g) {
			t.Errorf("%s: postconditions violated", p.Name())
		}
	}
}

func TestAdjacentCellsLinked(t *testing.T) {
	g := geom.NewSquareGrid(2, 20)
	// One node per cell near the centers, range large enough to link all.
	linked := FromPoints([]geom.Point{{X: 5, Y: 5}, {X: 15, Y: 5}, {X: 5, Y: 15}, {X: 15, Y: 15}}, g.Terrain, 12)
	if !linked.AdjacentCellsLinked(g) {
		t.Error("range 12 links all adjacent cell centers (10 apart)")
	}
	// Same layout, range below the center spacing: no direct cross links.
	unlinked := FromPoints([]geom.Point{{X: 5, Y: 5}, {X: 15, Y: 5}, {X: 5, Y: 15}, {X: 15, Y: 15}}, g.Terrain, 8)
	if unlinked.AdjacentCellsLinked(g) {
		t.Error("range 8 cannot link cells 10 apart")
	}
}

func TestDeterminismBySeed(t *testing.T) {
	g := geom.NewSquareGrid(4, 40)
	a := New(100, g.Terrain, 12, UniformRandom{}, rand.New(rand.NewSource(99)))
	b := New(100, g.Terrain, 12, UniformRandom{}, rand.New(rand.NewSource(99)))
	for i := range a.Nodes {
		if a.Nodes[i].Pos != b.Nodes[i].Pos {
			t.Fatalf("same seed produced different deployments at node %d", i)
		}
	}
}

func TestNewPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, f := range map[string]func(){
		"zero nodes": func() { New(0, terrain(10), 1, UniformRandom{}, rng) },
		"zero range": func() { New(5, terrain(10), 0, UniformRandom{}, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}

// TestFromAdjacency checks the explicit-adjacency constructor hands back
// exactly the lists it was given and enforces the one-list-per-node shape.
func TestFromAdjacency(t *testing.T) {
	pts := []geom.Point{{X: 0.5, Y: 0.5}, {X: 1.5, Y: 0.5}, {X: 2.5, Y: 0.5}}
	adj := [][]int{{1}, {0, 2}, {1}}
	nw := FromAdjacency(pts, geom.Rect{MaxX: 4, MaxY: 4}, 1.0, adj)
	if nw.N() != 3 {
		t.Fatalf("N = %d, want 3", nw.N())
	}
	for id := range adj {
		got := nw.Neighbors(id)
		if len(got) != len(adj[id]) {
			t.Fatalf("node %d neighbors = %v, want %v", id, got, adj[id])
		}
		for i := range got {
			if int(got[i]) != adj[id][i] {
				t.Fatalf("node %d neighbors = %v, want %v", id, got, adj[id])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched adjacency length should panic")
		}
	}()
	FromAdjacency(pts, geom.Rect{MaxX: 4, MaxY: 4}, 1.0, adj[:2])
}
