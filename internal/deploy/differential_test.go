package deploy

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"wsnva/internal/geom"
	"wsnva/internal/parallel"
)

// ---------------------------------------------------------------------------
// Legacy oracles. These are the pre-CSR implementations, kept verbatim in
// the test file as differential references: the map-BFS predicates and the
// per-node-slice neighbor build the package shipped before the flat CSR
// core. Every property test below pins the new implementations to them.
// ---------------------------------------------------------------------------

// legacyBuildNeighbors is the old buildNeighbors: spatial hash into
// [][]int buckets, per-node append, insertion sort per row.
func legacyBuildNeighbors(nw *Network) [][]int {
	n := len(nw.Nodes)
	neighbors := make([][]int, n)
	if n == 0 {
		return neighbors
	}
	bs := nw.Range
	cols := int(nw.Terrain.Width()/bs) + 1
	rows := int(nw.Terrain.Height()/bs) + 1
	bucketOf := func(p geom.Point) (int, int) {
		bx := int((p.X - nw.Terrain.MinX) / bs)
		by := int((p.Y - nw.Terrain.MinY) / bs)
		if bx >= cols {
			bx = cols - 1
		}
		if by >= rows {
			by = rows - 1
		}
		if bx < 0 {
			bx = 0
		}
		if by < 0 {
			by = 0
		}
		return bx, by
	}
	buckets := make([][]int, cols*rows)
	for i, nd := range nw.Nodes {
		bx, by := bucketOf(nd.Pos)
		buckets[by*cols+bx] = append(buckets[by*cols+bx], i)
	}
	r2 := nw.Range * nw.Range
	for i, nd := range nw.Nodes {
		bx, by := bucketOf(nd.Pos)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := bx+dx, by+dy
				if nx < 0 || nx >= cols || ny < 0 || ny >= rows {
					continue
				}
				for _, j := range buckets[ny*cols+nx] {
					if j != i && nd.Pos.Dist2(nw.Nodes[j].Pos) <= r2 {
						neighbors[i] = append(neighbors[i], j)
					}
				}
			}
		}
	}
	for i := range neighbors {
		row := neighbors[i]
		for k := 1; k < len(row); k++ {
			for j := k; j > 0 && row[j] < row[j-1]; j-- {
				row[j], row[j-1] = row[j-1], row[j]
			}
		}
	}
	return neighbors
}

// ints widens a CSR row to the []int the legacy oracles speak.
func ints(row []int32) []int {
	out := make([]int, len(row))
	for i, v := range row {
		out[i] = int(v)
	}
	return out
}

// legacyComponentSize is the old map-BFS component walk, restricted to the
// member set when member != nil.
func legacyComponentSize(nw *Network, start int, member map[int]bool) int {
	visited := map[int]bool{start: true}
	queue := []int{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range ints(nw.Neighbors(v)) {
			if member != nil && !member[u] {
				continue
			}
			if !visited[u] {
				visited[u] = true
				queue = append(queue, u)
			}
		}
	}
	return len(visited)
}

func legacyConnected(nw *Network) bool {
	if len(nw.Nodes) == 0 {
		return true
	}
	return legacyComponentSize(nw, 0, nil) == len(nw.Nodes)
}

func legacyCellsConnected(nw *Network, g *geom.Grid) bool {
	for _, m := range nw.CellMembers(g) {
		if len(m) == 0 {
			return false
		}
		member := make(map[int]bool, len(m))
		for _, id := range m {
			member[id] = true
		}
		if legacyComponentSize(nw, m[0], member) != len(m) {
			return false
		}
	}
	return true
}

func legacyAdjacentCellsLinked(nw *Network, g *geom.Grid) bool {
	members := nw.CellMembers(g)
	cellIdx := make([]int, nw.N())
	for idx, m := range members {
		for _, id := range m {
			cellIdx[id] = idx
		}
	}
	linked := make(map[[2]int]bool)
	for id := range nw.Nodes {
		for _, nbr := range nw.Neighbors(id) {
			a, b := cellIdx[id], cellIdx[nbr]
			if a != b {
				linked[[2]int{a, b}] = true
			}
		}
	}
	for _, c := range g.Coords() {
		idx := g.Index(c)
		for d := geom.North; d < geom.NumDirs; d++ {
			adj := c.Step(d)
			if !g.InBounds(adj) {
				continue
			}
			if !linked[[2]int{idx, g.Index(adj)}] {
				return false
			}
		}
	}
	return true
}

func legacyMaxIntraCellPathLen(nw *Network, g *geom.Grid) int {
	maxLen := 0
	for _, m := range nw.CellMembers(g) {
		if len(m) <= 1 {
			continue
		}
		member := make(map[int]bool, len(m))
		for _, id := range m {
			member[id] = true
		}
		for _, src := range m {
			dist := map[int]int{src: 0}
			queue := []int{src}
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				for _, u := range ints(nw.Neighbors(v)) {
					if !member[u] {
						continue
					}
					if _, seen := dist[u]; !seen {
						dist[u] = dist[v] + 1
						if dist[u] > maxLen {
							maxLen = dist[u]
						}
						queue = append(queue, u)
					}
				}
			}
		}
	}
	return maxLen
}

// ---------------------------------------------------------------------------
// Random deployment tuples shared by the differential tests.
// ---------------------------------------------------------------------------

type tuple struct {
	n       int
	side    int // grid side
	rscale  float64
	place   Placement
	seed    int64
	terrain float64 // terrain side length
}

func randomTuples(count int, seed int64) []tuple {
	rng := rand.New(rand.NewSource(seed))
	placements := []Placement{
		UniformRandom{},
		PerturbedGrid{Jitter: 0.4},
		Clustered{Clusters: 5, Spread: 0.2},
		WithHole{Inner: UniformRandom{}, Hole: geom.Rect{MinX: 10, MinY: 10, MaxX: 30, MaxY: 30}},
	}
	out := make([]tuple, count)
	for i := range out {
		side := 2 + rng.Intn(5) // 2..6
		out[i] = tuple{
			n:       side*side*(3+rng.Intn(8)) + rng.Intn(7),
			side:    side,
			rscale:  1.0 + rng.Float64()*0.8,
			place:   placements[rng.Intn(len(placements))],
			seed:    rng.Int63(),
			terrain: float64(side) * 10,
		}
	}
	return out
}

func (tp tuple) grid() *geom.Grid { return geom.NewSquareGrid(tp.side, tp.terrain) }

func (tp tuple) build() (*Network, *geom.Grid) {
	g := tp.grid()
	nw := New(tp.n, g.Terrain, g.CellSide()*tp.rscale, tp.place, rand.New(rand.NewSource(tp.seed)))
	return nw, g
}

func sameNetwork(a, b *Network) bool {
	if a.N() != b.N() || a.Range != b.Range || a.Terrain != b.Terrain {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	aOff, aAdj := a.CSRView()
	bOff, bAdj := b.CSRView()
	return reflect.DeepEqual(aOff, bOff) && reflect.DeepEqual(aAdj, bAdj)
}

// ---------------------------------------------------------------------------
// Differential properties.
// ---------------------------------------------------------------------------

// TestCSRMatchesLegacyBuild pins the CSR construction to the legacy
// per-node-slice build: for random deployments, every CSR row deep-equals
// the corresponding legacy list.
func TestCSRMatchesLegacyBuild(t *testing.T) {
	for _, tp := range randomTuples(25, 0xC5A) {
		nw, _ := tp.build()
		want := legacyBuildNeighbors(nw)
		for id := 0; id < nw.N(); id++ {
			got := ints(nw.Neighbors(id))
			if len(got) == 0 && len(want[id]) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want[id]) {
				t.Fatalf("tuple %+v: node %d CSR row %v != legacy %v", tp, id, got, want[id])
			}
		}
	}
}

// TestCSRRowsStrictlyIncreasing is the sortedness property the radio
// layer's binary search depends on: every CSR row of every constructor is
// strictly increasing.
func TestCSRRowsStrictlyIncreasing(t *testing.T) {
	for _, tp := range randomTuples(25, 0x50F7) {
		nw, _ := tp.build()
		off, adj := nw.CSRView()
		if len(off) != nw.N()+1 {
			t.Fatalf("tuple %+v: offsets len %d, want %d", tp, len(off), nw.N()+1)
		}
		for id := 0; id < nw.N(); id++ {
			row := adj[off[id]:off[id+1]]
			for k := 1; k < len(row); k++ {
				if row[k-1] >= row[k] {
					t.Fatalf("tuple %+v: node %d row not strictly increasing: %v", tp, id, row)
				}
			}
		}
	}
}

// TestParallelBuildMatchesSequential pins pool-independence of the CSR
// build: the same placement built with a nil pool and a multi-worker pool
// yields byte-identical networks equal to the legacy build, from a few
// buckets' worth of nodes to thousands, on a pool wider than the terrain's
// bucket-row count, and on a strip one bucket row high.
func TestParallelBuildMatchesSequential(t *testing.T) {
	square := geom.Rect{MaxX: 80, MaxY: 80} // 7 bucket rows at range 12
	strip := geom.Rect{MaxX: 320, MaxY: 10} // 1 bucket row
	for _, c := range []struct {
		terrain    geom.Rect
		n, workers int
	}{{square, 50, 4}, {square, 1200, 4}, {square, 4596, 4}, {square, 1200, 16}, {strip, 600, 4}} {
		seq := NewWithPool(c.n, c.terrain, 12, UniformRandom{}, rand.New(rand.NewSource(7)), nil)
		par := NewWithPool(c.n, c.terrain, 12, UniformRandom{}, rand.New(rand.NewSource(7)), parallel.New(c.workers))
		if !sameNetwork(seq, par) {
			t.Fatalf("%+v: parallel build differs from sequential", c)
		}
		for id, want := range legacyBuildNeighbors(seq) {
			if got := ints(seq.Neighbors(id)); !slices.Equal(got, want) {
				t.Fatalf("%+v: node %d CSR row %v != legacy %v", c, id, got, want)
			}
		}
	}
}

// TestPredicatesMatchLegacy runs all four validation predicates (plus the
// path-length metric) against the map-BFS oracles on random deployments
// and on hand-placed ones whose deciding edge comes last in the scan, so
// an early exit taken one edge too soon flips the verdict.
func TestPredicatesMatchLegacy(t *testing.T) {
	s := NewScratch()
	check := func(label string, nw *Network, g *geom.Grid) {
		t.Helper()
		if got, want := s.Connected(nw), legacyConnected(nw); got != want {
			t.Fatalf("%s: Connected=%v, legacy=%v", label, got, want)
		}
		if got, want := nw.OccupancyOK(g), legacyOccupancyOK(nw, g); got != want {
			t.Fatalf("%s: OccupancyOK=%v, legacy=%v", label, got, want)
		}
		if got, want := s.CellsConnected(nw, g), legacyCellsConnected(nw, g); got != want {
			t.Fatalf("%s: CellsConnected=%v, legacy=%v", label, got, want)
		}
		if got, want := s.AdjacentCellsLinked(nw, g), legacyAdjacentCellsLinked(nw, g); got != want {
			t.Fatalf("%s: AdjacentCellsLinked=%v, legacy=%v", label, got, want)
		}
		if legacyCellsConnected(nw, g) {
			if got, want := s.MaxIntraCellPathLen(nw, g), legacyMaxIntraCellPathLen(nw, g); got != want {
				t.Fatalf("%s: MaxIntraCellPathLen=%d, legacy=%d", label, got, want)
			}
		}
	}
	for _, tp := range randomTuples(40, 0xBEEF) {
		nw, g := tp.build()
		check(fmt.Sprintf("tuple %+v", tp), nw, g)
	}

	// Three 10×10 cells in a row, each a chain at range 3.6. Cells 0 and 1
	// are linked from node 0's row on, and again from node 1's; the only
	// edge between cells 1 and 2 joins the two highest IDs, 6 and 7.
	strip := geom.NewGrid(3, 1, geom.Rect{MaxX: 30, MaxY: 10})
	linked := []geom.Point{{X: 8, Y: 5}, {X: 11, Y: 5}, {X: 5, Y: 5}, {X: 14, Y: 5},
		{X: 23.5, Y: 5}, {X: 26.5, Y: 5}, {X: 17, Y: 5}, {X: 20.5, Y: 5}}
	unlinked := slices.Clone(linked)
	unlinked[7] = geom.Point{X: 21.5, Y: 5} // still beside node 4, now 4.5 from node 6
	// One cell whose halves {0, 2} and {1, 3} meet only at node 4; a 1×1
	// grid needs no link, so AdjacentCellsLinked holds even when split.
	single := geom.NewSquareGrid(1, 10)
	joined := []geom.Point{{X: 1, Y: 5}, {X: 9, Y: 5}, {X: 3, Y: 5}, {X: 7, Y: 5}, {X: 5, Y: 5}}
	// Two cells: the west one holds 0, 1 and 3 in a chain at range 3.5,
	// and only its last member, 3, reaches the east cell (node 4).
	pair := geom.NewGrid(2, 1, geom.Rect{MaxX: 20, MaxY: 10})
	lastMember := []geom.Point{{X: 1, Y: 5}, {X: 4, Y: 5}, {X: 13.5, Y: 5}, {X: 7.5, Y: 5}, {X: 10.5, Y: 5}}
	// The strip again at range 3.6: cells 0 and 1 are chains, and the last
	// cell's two members, 6 and 7, lie 6 apart, each beside one end of
	// cell 1's vertical bar, so G_r is connected but the last cell is
	// split. A scan that stops at the first connected cell accepts it.
	lastSplit := []geom.Point{{X: 7, Y: 5}, {X: 9.5, Y: 5}, {X: 12, Y: 5}, {X: 15, Y: 5},
		{X: 18, Y: 2}, {X: 18, Y: 5}, {X: 20.5, Y: 2}, {X: 20.5, Y: 8}, {X: 18, Y: 8}}
	for _, c := range []struct {
		name string
		pts  []geom.Point
		g    *geom.Grid
		r    float64
		want [3]bool // Connected, CellsConnected, AdjacentCellsLinked
	}{
		{"linked by the last edge", linked, strip, 3.6, [3]bool{true, true, true}},
		{"last edge out of range", unlinked, strip, 3.6, [3]bool{false, true, false}},
		{"halves joined by the last node", joined, single, 2.5, [3]bool{true, true, true}},
		{"halves without the last node", joined[:4], single, 2.5, [3]bool{false, false, true}},
		{"linked by the west cell's last member", lastMember, pair, 3.5, [3]bool{true, true, true}},
		{"every cell connected but the last", lastSplit, strip, 3.6, [3]bool{true, false, true}},
	} {
		nw := FromPoints(c.pts, c.g.Terrain, c.r)
		check(c.name, nw, c.g)
		if got := [3]bool{s.Connected(nw), s.CellsConnected(nw, c.g), s.AdjacentCellsLinked(nw, c.g)}; got != c.want {
			t.Fatalf("%s: predicates %v, want %v", c.name, got, c.want)
		}
	}

	// The same nodes with directed FromAdjacency edges, so that only one
	// walk of the per-cell scan can find the pair's link: the edge runs
	// from the west cell's last member east, from the east cell's last
	// member back, or not at all. The predicates read an edge either way
	// (the legacy map wants both directions, so it is no oracle here).
	for _, c := range []struct {
		name string
		adj  [][]int
		want [3]bool
	}{
		{"linked only by the west cell's last member", [][]int{{1}, {0, 3}, {4}, {1, 4}, {2}}, [3]bool{true, true, true}},
		{"linked only from the east cell back", [][]int{{1}, {0, 3}, {4}, {1}, {2, 3}}, [3]bool{true, true, true}},
		{"directed, unlinked", [][]int{{1}, {0, 3}, {4}, {1}, {2}}, [3]bool{false, true, false}},
	} {
		nw := FromAdjacency(lastMember, pair.Terrain, 3.5, c.adj)
		if got := [3]bool{s.Connected(nw), s.CellsConnected(nw, pair), s.AdjacentCellsLinked(nw, pair)}; got != c.want {
			t.Fatalf("%s: predicates %v, want %v", c.name, got, c.want)
		}
	}
}

// TestAcceptanceImpliesConnected backs Generate's acceptance test, which
// leaves Connected out: on random uniform, perturbed-grid and clustered
// deployments, at ranges from 0.6 to 1.6 cell sides and densities from 1
// to 8 nodes a cell, every network CellsConnected and AdjacentCellsLinked
// accept is connected by the legacy BFS, and Generate returns the same
// network after the same number of attempts as a loop that also runs
// Connected.
func TestAcceptanceImpliesConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(0xACCE))
	placements := []Placement{UniformRandom{}, PerturbedGrid{Jitter: 0.4}, Clustered{Clusters: 5, Spread: 0.2}}
	s := NewScratch()
	var accepted, rejected, failed int
	for i := 0; i < 150; i++ {
		side := 2 + rng.Intn(4)
		g := geom.NewSquareGrid(side, float64(side)*10)
		n := side * side * (1 + rng.Intn(8))
		r := g.CellSide() * (0.6 + rng.Float64())
		p := placements[rng.Intn(len(placements))]
		seed := rng.Int63()
		label := fmt.Sprintf("case %d (n=%d, side=%d, r=%.2f, %s)", i, n, side, r, p.Name())

		nw := New(n, g.Terrain, r, p, rand.New(rand.NewSource(seed)))
		if s.CellsConnected(nw, g) && s.AdjacentCellsLinked(nw, g) {
			accepted++
			if !legacyConnected(nw) {
				t.Fatalf("%s: accepted by the cell predicates but not connected", label)
			}
		} else {
			rejected++
		}

		const attempts = 3
		got, gotA, err := Generate(n, g, r, p, rand.New(rand.NewSource(seed)), attempts)
		ref := rand.New(rand.NewSource(seed))
		var want *Network
		wantA := attempts
		for a := 1; a <= attempts; a++ {
			cand := New(n, g.Terrain, r, p, ref)
			if s.Connected(cand) && s.CellsConnected(cand, g) && s.AdjacentCellsLinked(cand, g) {
				want, wantA = cand, a
				break
			}
		}
		if err != nil {
			failed++
		}
		if (err == nil) != (want != nil) || gotA != wantA || want != nil && !sameNetwork(got, want) {
			t.Fatalf("%s: Generate gave attempt %d (err %v), three predicates accept attempt %d (found %v)",
				label, gotA, err, wantA, want != nil)
		}
	}
	if accepted == 0 || rejected == 0 || failed == 0 || failed == 150 {
		t.Fatalf("%d accepted, %d rejected, %d Generate failures: the cases do not cover both verdicts", accepted, rejected, failed)
	}
}

func legacyOccupancyOK(nw *Network, g *geom.Grid) bool {
	for _, m := range nw.CellMembers(g) {
		if len(m) == 0 {
			return false
		}
	}
	return true
}

// TestScratchPredicatesZeroAlloc is the acceptance criterion on the
// validation predicates: with a warmed scratch, Connected, CellsConnected,
// AdjacentCellsLinked, MaxIntraCellPathLen and Generate's acceptance test
// allocate nothing.
func TestScratchPredicatesZeroAlloc(t *testing.T) {
	g := geom.NewSquareGrid(8, 80)
	nw := New(640, g.Terrain, g.CellSide()*1.3, UniformRandom{}, rand.New(rand.NewSource(3)))
	s := NewScratch()
	// Warm the buffers to their steady-state sizes.
	s.Connected(nw)
	s.CellsConnected(nw, g)
	s.AdjacentCellsLinked(nw, g)
	s.MaxIntraCellPathLen(nw, g)
	checks := []struct {
		name string
		fn   func()
	}{
		{"Connected", func() { s.Connected(nw) }},
		{"CellsConnected", func() { s.CellsConnected(nw, g) }},
		{"AdjacentCellsLinked", func() { s.AdjacentCellsLinked(nw, g) }},
		{"MaxIntraCellPathLen", func() { s.MaxIntraCellPathLen(nw, g) }},
		{"accepts", func() { s.accepts(nw, g) }},
	}
	for _, c := range checks {
		if allocs := testing.AllocsPerRun(20, c.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/run on warmed scratch, want 0", c.name, allocs)
		}
	}
}

// TestWithHoleNearTotalHole exercises the documented rejection fallback: a
// hole covering the entire terrain can never accept a sample, so every
// point must land deterministically on the terrain corner farthest from
// the hole center — and Place must terminate rather than panic.
func TestWithHoleNearTotalHole(t *testing.T) {
	terrain := geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	// Hole centered in the terrain's NE region: farthest corner is (0,0).
	w := WithHole{Inner: UniformRandom{}, Hole: geom.Rect{MinX: -50, MinY: -50, MaxX: 300, MaxY: 300}}
	// Center of that hole is (125,125); farthest terrain corner is (0,0).
	pts := w.Place(20, terrain, rand.New(rand.NewSource(1)))
	if len(pts) != 20 {
		t.Fatalf("got %d points, want 20", len(pts))
	}
	for i, p := range pts {
		if p != (geom.Point{X: 0, Y: 0}) {
			t.Fatalf("point %d = %v, want fallback corner (0,0)", i, p)
		}
	}
}

// TestWithHolePartialStillRejects: the fallback must not fire for holes
// that leave room — every point lands outside the hole, none on a corner
// pile-up.
func TestWithHolePartialStillRejects(t *testing.T) {
	terrain := geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	// 99% of the terrain is hole; the east strip x ∈ (99,100) remains.
	w := WithHole{Inner: UniformRandom{}, Hole: geom.Rect{MinX: 0, MinY: 0, MaxX: 99, MaxY: 100}}
	pts := w.Place(50, terrain, rand.New(rand.NewSource(2)))
	if len(pts) != 50 {
		t.Fatalf("got %d points, want 50", len(pts))
	}
	for i, p := range pts {
		if w.Hole.Contains(p) {
			t.Fatalf("point %d = %v inside the hole", i, p)
		}
	}
}

// TestPositionsViewAliasesNodes: the SoA position vectors agree with the
// node table and share the network's lifetime (consumers alias them).
func TestPositionsViewAliasesNodes(t *testing.T) {
	g := geom.NewSquareGrid(4, 40)
	nw := New(100, g.Terrain, g.CellSide()*1.2, UniformRandom{}, rand.New(rand.NewSource(9)))
	xs, ys := nw.PositionsView()
	if len(xs) != nw.N() || len(ys) != nw.N() {
		t.Fatalf("views have %d/%d entries for %d nodes", len(xs), len(ys), nw.N())
	}
	for i, nd := range nw.Nodes {
		if xs[i] != nd.Pos.X || ys[i] != nd.Pos.Y {
			t.Fatalf("node %d: view (%v,%v) != pos %v", i, xs[i], ys[i], nd.Pos)
		}
	}
}
