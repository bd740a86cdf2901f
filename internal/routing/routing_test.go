package routing

import (
	"math/rand"
	"testing"

	"wsnva/internal/geom"
)

// adjGraph is a simple explicit-adjacency Graph for tests.
type adjGraph [][]int32

func (g adjGraph) N() int                   { return len(g) }
func (g adjGraph) Neighbors(id int) []int32 { return g[id] }

func TestBFSOnChain(t *testing.T) {
	g := adjGraph{{1}, {0, 2}, {1, 3}, {2}}
	dist, parent := BFS(g, 0)
	wantDist := []int{0, 1, 2, 3}
	for i := range wantDist {
		if dist[i] != wantDist[i] {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], wantDist[i])
		}
	}
	if parent[0] != -1 || parent[1] != 0 || parent[3] != 2 {
		t.Errorf("parents = %v", parent)
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := adjGraph{{1}, {0}, {3}, {2}}
	dist, parent := BFS(g, 0)
	if dist[2] != -1 || dist[3] != -1 {
		t.Errorf("unreachable nodes should have dist -1, got %v", dist)
	}
	if parent[2] != -1 || parent[3] != -1 {
		t.Errorf("unreachable nodes should have parent -1, got %v", parent)
	}
}

// walkRoute collects the cells WalkXY visits from src to dst, src first,
// after checking that consecutive hops chain and that the returned count
// matches the hops visited.
func walkRoute(t *testing.T, grid *geom.Grid, src, dst geom.Coord) []geom.Coord {
	t.Helper()
	route := []geom.Coord{src}
	n := WalkXY(grid, src, dst, func(from, to geom.Coord) {
		if from != route[len(route)-1] {
			t.Fatalf("hop %v->%v does not start where the last one ended (%v)", from, to, route[len(route)-1])
		}
		route = append(route, to)
	})
	if n != len(route)-1 {
		t.Fatalf("WalkXY %v->%v returned %d hops, visited %d", src, dst, n, len(route)-1)
	}
	return route
}

func TestXYRouteMinimal(t *testing.T) {
	grid := geom.NewSquareGrid(8, 8)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		src := geom.Coord{Col: rng.Intn(8), Row: rng.Intn(8)}
		dst := geom.Coord{Col: rng.Intn(8), Row: rng.Intn(8)}
		route := walkRoute(t, grid, src, dst)
		if len(route) != src.Manhattan(dst)+1 {
			t.Fatalf("route %v->%v has %d hops, want %d", src, dst, len(route)-1, src.Manhattan(dst))
		}
		if route[len(route)-1] != dst {
			t.Fatalf("route ends at %v, want %v: %v", route[len(route)-1], dst, route)
		}
		for j := 1; j < len(route); j++ {
			if route[j-1].Manhattan(route[j]) != 1 {
				t.Fatalf("route %v has non-adjacent step at %d", route, j)
			}
			if !grid.InBounds(route[j]) {
				t.Fatalf("route leaves grid at %v", route[j])
			}
		}
	}
}

func TestXYRouteColumnFirst(t *testing.T) {
	grid := geom.NewSquareGrid(4, 4)
	route := walkRoute(t, grid, geom.Coord{Col: 0, Row: 0}, geom.Coord{Col: 2, Row: 2})
	// Column moves must all precede row moves.
	want := []geom.Coord{{Col: 0, Row: 0}, {Col: 1, Row: 0}, {Col: 2, Row: 0}, {Col: 2, Row: 1}, {Col: 2, Row: 2}}
	if len(route) != len(want) {
		t.Fatalf("route = %v", route)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("route = %v, want %v", route, want)
		}
	}
}

func TestXYRouteOutOfBoundsPanics(t *testing.T) {
	grid := geom.NewSquareGrid(4, 4)
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds endpoint should panic")
		}
	}()
	WalkXY(grid, geom.Coord{Col: 0, Row: 0}, geom.Coord{Col: 4, Row: 0}, func(_, _ geom.Coord) {})
}

func TestNextHopXY(t *testing.T) {
	cases := []struct {
		src, dst geom.Coord
		want     geom.Dir
		ok       bool
	}{
		{geom.Coord{Col: 0, Row: 0}, geom.Coord{Col: 3, Row: 0}, geom.East, true},
		{geom.Coord{Col: 3, Row: 0}, geom.Coord{Col: 0, Row: 0}, geom.West, true},
		{geom.Coord{Col: 1, Row: 0}, geom.Coord{Col: 1, Row: 4}, geom.South, true},
		{geom.Coord{Col: 1, Row: 4}, geom.Coord{Col: 1, Row: 0}, geom.North, true},
		// Column takes priority over row.
		{geom.Coord{Col: 0, Row: 0}, geom.Coord{Col: 1, Row: 1}, geom.East, true},
		{geom.Coord{Col: 2, Row: 2}, geom.Coord{Col: 2, Row: 2}, geom.North, false},
	}
	for _, c := range cases {
		d, ok := NextHopXY(c.src, c.dst)
		if ok != c.ok || (ok && d != c.want) {
			t.Errorf("NextHopXY(%v,%v) = %v,%v want %v,%v", c.src, c.dst, d, ok, c.want, c.ok)
		}
	}
}
