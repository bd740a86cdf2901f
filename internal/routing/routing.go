// Package routing provides the dimension-order (XY) routing that
// forwards messages between adjacent cells of the oriented grid once
// topology emulation has filled the per-node routing tables (the DES
// machine, the goroutine runtime, emul and the shard engine's labeling
// app all route with it), and BFS hop counts over an arbitrary graph:
// the minimum-hop distances Section 4.2's cost analysis assumes, against
// which vtree's tests check spanning-tree depths.
package routing

import (
	"fmt"

	"wsnva/internal/geom"
)

// Graph is the minimal adjacency view BFS needs; deploy.Network
// satisfies it.
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
