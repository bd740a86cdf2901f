// Package routing provides the shortest-path machinery the virtual
// architecture's cost analysis assumes (Section 4.2: follower→leader cost
// proportional to minimum hop count under shortest-path routing) and the
// dimension-order (XY) routing used to forward messages between adjacent
// cells of the oriented grid once topology emulation has filled the
// per-node routing tables.
package routing

import (
	"fmt"

	"wsnva/internal/geom"
)

// Graph is the minimal adjacency view the BFS routines need. Both
// deploy.Network and the grid adapters below satisfy it.
type Graph interface {
	N() int
	Neighbors(id int) []int32
}

// BFS computes single-source shortest hop counts on g. Unreachable nodes
// get distance -1. parent[v] is the predecessor of v on one shortest path
// (-1 for the source and unreachable nodes).
func BFS(g Graph, src int) (dist, parent []int) {
	n := g.N()
	dist = make([]int, n)
	parent = make([]int, n)
	for i := range dist {
		dist[i] = -1
		parent[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 0, n)
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				parent[u] = v
				queue = append(queue, int(u))
			}
		}
	}
	return dist, parent
}

// Path reconstructs the node sequence from src to dst using the parent
// array returned by BFS(g, src). It returns nil if dst is unreachable.
func Path(parent []int, src, dst int) []int {
	if src == dst {
		return []int{src}
	}
	if parent[dst] == -1 {
		return nil
	}
	var rev []int
	for v := dst; v != -1; v = parent[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// HopCount returns the shortest hop distance between two nodes, or -1 if
// disconnected. For repeated queries from one source prefer BFS directly.
func HopCount(g Graph, src, dst int) int {
	dist, _ := BFS(g, src)
	return dist[dst]
}

// Eccentricity returns the maximum finite BFS distance from src, and
// whether all nodes were reachable.
func Eccentricity(g Graph, src int) (ecc int, connected bool) {
	dist, _ := BFS(g, src)
	connected = true
	for _, d := range dist {
		if d == -1 {
			connected = false
			continue
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc, connected
}

// GridGraph adapts a virtual grid to the Graph interface: nodes are cell
// indices, edges connect 4-adjacent cells. It is the "virtual network
// graph" G_v of Section 5.1.
type GridGraph struct {
	G *geom.Grid
}

// N implements Graph.
func (gg GridGraph) N() int { return gg.G.N() }

// Neighbors implements Graph.
func (gg GridGraph) Neighbors(id int) []int32 {
	c := gg.G.CoordOf(id)
	var out []int32
	for d := geom.North; d < geom.NumDirs; d++ {
		if n := c.Step(d); gg.G.InBounds(n) {
			out = append(out, int32(gg.G.Index(n)))
		}
	}
	return out
}

// WalkXY visits every hop of the dimension-order route from src to dst on
// grid g in order — first along the column axis (east/west), then along
// the row axis (north/south) — calling visit(from, to) once per hop,
// without materializing the route. It returns the hop count, which is
// exactly src.Manhattan(dst): XY routing is minimal on a full grid.
func WalkXY(g *geom.Grid, src, dst geom.Coord, visit func(from, to geom.Coord)) int {
	if !g.InBounds(src) || !g.InBounds(dst) {
		panic(fmt.Sprintf("routing: WalkXY endpoints %v->%v out of bounds", src, dst))
	}
	hops := 0
	cur := src
	for cur.Col != dst.Col {
		next := cur
		if cur.Col < dst.Col {
			next = cur.Step(geom.East)
		} else {
			next = cur.Step(geom.West)
		}
		visit(cur, next)
		cur = next
		hops++
	}
	for cur.Row != dst.Row {
		next := cur
		if cur.Row < dst.Row {
			next = cur.Step(geom.South)
		} else {
			next = cur.Step(geom.North)
		}
		visit(cur, next)
		cur = next
		hops++
	}
	return hops
}

// NextHopXY returns the direction of the first XY-routing hop from src
// toward dst, and false if src == dst.
func NextHopXY(src, dst geom.Coord) (geom.Dir, bool) {
	switch {
	case src.Col < dst.Col:
		return geom.East, true
	case src.Col > dst.Col:
		return geom.West, true
	case src.Row < dst.Row:
		return geom.South, true
	case src.Row > dst.Row:
		return geom.North, true
	}
	return geom.North, false
}

// Table is a per-node next-hop table over an arbitrary graph, built from a
// single BFS tree per destination on demand and cached. It gives the
// experiments an oracle for "shortest path routing" (Section 4.2) on the
// real network.
type Table struct {
	g      Graph
	toward map[int][]int // dst -> parent array of BFS from dst
}

// NewTable returns an empty routing table over g.
func NewTable(g Graph) *Table {
	return &Table{g: g, toward: make(map[int][]int)}
}

// NextHop returns the next node on a shortest path from src toward dst,
// or -1 if dst is unreachable. NextHop(dst, dst) returns dst.
func (t *Table) NextHop(src, dst int) int {
	if src == dst {
		return dst
	}
	parent, ok := t.toward[dst]
	if !ok {
		// BFS from dst: parent[v] is the next hop from v toward dst.
		_, parent = BFS(t.g, dst)
		t.toward[dst] = parent
	}
	return parent[src]
}

// Route returns the full node sequence from src to dst (inclusive), or nil
// if unreachable.
func (t *Table) Route(src, dst int) []int {
	route := []int{src}
	cur := src
	for cur != dst {
		next := t.NextHop(cur, dst)
		if next == -1 {
			return nil
		}
		cur = next
		route = append(route, cur)
		if len(route) > t.g.N() {
			panic("routing: next-hop cycle detected")
		}
	}
	return route
}
