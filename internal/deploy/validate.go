package deploy

import (
	"math"

	"wsnva/internal/geom"
)

// Scratch holds the reusable working storage for the validation predicates
// (union-find forest, cell-membership CSR, BFS buffers). A
// single Scratch amortizes all allocations across repeated validations —
// Generate qualifies every candidate deployment with one — so after the
// first call at a given size the predicates allocate nothing. A Scratch is
// not safe for concurrent use; give each goroutine its own.
//
// The predicates assume a symmetric adjacency, which every disk-model
// constructor (New, FromPoints) guarantees. FromAdjacency can build
// directed graphs; on those the union-find predicates compute connectivity
// of the symmetrized graph, which may differ from the legacy directed-BFS
// reading, and AdjacentCellsLinked counts a pair linked by an edge either
// way. Directed adjacency is otherwise outside the predicates' contract.
type Scratch struct {
	parent []int32 // union-find forest, one entry per node

	cellOf   []int32 // node → grid cell index
	cellPtr  []int32 // cell CSR offsets, len cells+1
	cellIDs  []int32 // node IDs grouped by cell, ascending within each
	cellCurs []int32 // counting-sort cursors

	dist  []int32 // BFS hop counts, valid where mark[i] == epoch
	mark  []int32 // BFS visit stamps
	queue []int32 // BFS frontier
	epoch int32
}

// NewScratch returns an empty Scratch; buffers grow on first use and are
// reused afterward.
func NewScratch() *Scratch { return &Scratch{} }

// growI32 returns s resized to n, reusing capacity when possible. Contents
// are unspecified — callers initialize what they read.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// resetUF (re)initializes the union-find forest over n singleton nodes.
func (s *Scratch) resetUF(n int) {
	s.parent = growI32(s.parent, n)
	for i := range s.parent {
		s.parent[i] = int32(i)
	}
}

// find returns the root of x with path halving — every visited node is
// re-pointed at its grandparent, keeping trees flat without a rank array.
func (s *Scratch) find(x int32) int32 {
	p := s.parent
	for p[x] != x {
		p[x] = p[p[x]]
		x = p[x]
	}
	return x
}

// union merges the sets of a and b, reporting whether they were distinct.
func (s *Scratch) union(a, b int32) bool {
	ra, rb := s.find(a), s.find(b)
	if ra == rb {
		return false
	}
	if ra < rb {
		s.parent[rb] = ra
	} else {
		s.parent[ra] = rb
	}
	return true
}

// Connected reports whether G_r is connected: one union-find pass over the
// CSR edge array, counting component merges and stopping as soon as a
// single component remains. Allocation-free after the forest has grown to
// the network size once.
func (s *Scratch) Connected(nw *Network) bool {
	n := nw.N()
	if n == 0 {
		return true
	}
	s.resetUF(n)
	comps := n
	off, adj := nw.off, nw.adj
	for i := 0; i < n && comps > 1; i++ {
		for _, j := range adj[off[i]:off[i+1]] {
			if s.union(int32(i), j) {
				comps--
			}
		}
	}
	return comps == 1
}

// prepCells fills the node→cell map and the cell-membership CSR (members
// ascending within each cell, by counting sort over node IDs). It reports
// whether every cell is occupied.
func (s *Scratch) prepCells(nw *Network, g *geom.Grid) bool {
	n := nw.N()
	cells := g.N()
	s.cellOf = growI32(s.cellOf, n)
	s.cellPtr = growI32(s.cellPtr, cells+1)
	for i := range s.cellPtr {
		s.cellPtr[i] = 0
	}
	for i := 0; i < n; i++ {
		c := int32(g.Index(g.CellOf(geom.Point{X: nw.xs[i], Y: nw.ys[i]})))
		s.cellOf[i] = c
		s.cellPtr[c+1]++
	}
	occupied := true
	for c := 0; c < cells; c++ {
		if s.cellPtr[c+1] == 0 {
			occupied = false
		}
		s.cellPtr[c+1] += s.cellPtr[c]
	}
	s.cellIDs = growI32(s.cellIDs, n)
	s.cellCurs = growI32(s.cellCurs, cells)
	copy(s.cellCurs, s.cellPtr[:cells])
	for i := 0; i < n; i++ {
		c := s.cellOf[i]
		s.cellIDs[s.cellCurs[c]] = int32(i)
		s.cellCurs[c]++
	}
	return occupied
}

// CellsConnected reports whether every cell of g is non-empty and induces
// a connected subgraph.
func (s *Scratch) CellsConnected(nw *Network, g *geom.Grid) bool {
	return s.prepCells(nw, g) && s.cellsConnected(nw)
}

// cellsConnected is CellsConnected once prepCells has reported every cell
// occupied. Each cell
// walks its members' rows, merging endpoints that share the cell, and
// stops as soon as its union-find holds one component; a cell whose walk
// ends with more fails the test.
func (s *Scratch) cellsConnected(nw *Network) bool {
	s.resetUF(nw.N())
	off, adj := nw.off, nw.adj
	cellOf := s.cellOf
	cells := int32(len(s.cellPtr) - 1)
	for c := int32(0); c < cells; c++ {
		members := s.cellIDs[s.cellPtr[c]:s.cellPtr[c+1]]
		comps := len(members)
		for _, i := range members {
			if comps == 1 {
				break
			}
			for _, j := range adj[off[i]:off[i+1]] {
				if cellOf[j] == c && s.union(i, j) {
					comps--
				}
			}
		}
		if comps > 1 {
			return false
		}
	}
	return true
}

// AdjacentCellsLinked reports whether every 4-adjacent cell pair has at
// least one direct radio edge.
func (s *Scratch) AdjacentCellsLinked(nw *Network, g *geom.Grid) bool {
	s.prepCells(nw, g)
	return s.cellsLinked(nw, g)
}

// cellsLinked is AdjacentCellsLinked on the prepared cell CSR. Each cell
// walks its members' rows until it has found an edge into its east and
// its south neighbor cell, which covers every unordered adjacent pair
// once. A pair counts when an edge runs either way, so before failing a
// pair the walk looks for an edge back from the other cell's members; on
// a symmetric adjacency that second walk only confirms the failure.
func (s *Scratch) cellsLinked(nw *Network, g *geom.Grid) bool {
	cols, rows := int32(g.Cols), int32(g.Rows)
	for c := int32(0); c < int32(g.N()); c++ {
		east, south := c%cols < cols-1, c/cols < rows-1
		needE, needS := east, south
		for _, i := range s.cellIDs[s.cellPtr[c]:s.cellPtr[c+1]] {
			if !needE && !needS {
				break
			}
			for _, j := range nw.Neighbors(int(i)) {
				switch b := s.cellOf[j]; {
				case east && b == c+1:
					needE = false
				case b == c+cols:
					needS = false
				}
			}
		}
		if needE && !s.linksInto(nw, c+1, c) || needS && !s.linksInto(nw, c+cols, c) {
			return false
		}
	}
	return true
}

// linksInto reports whether some member of cell a has an edge into cell b.
func (s *Scratch) linksInto(nw *Network, a, b int32) bool {
	for _, i := range s.cellIDs[s.cellPtr[a]:s.cellPtr[a+1]] {
		for _, j := range nw.Neighbors(int(i)) {
			if s.cellOf[j] == b {
				return true
			}
		}
	}
	return false
}

// MaxIntraCellPathLen returns the maximum intra-cell BFS eccentricity over
// all cells (see Network.MaxIntraCellPathLen). BFS runs on epoch-stamped
// int32 buffers — no maps, no per-source allocation.
func (s *Scratch) MaxIntraCellPathLen(nw *Network, g *geom.Grid) int {
	s.prepCells(nw, g)
	n := nw.N()
	s.dist = growI32(s.dist, n)
	s.queue = growI32(s.queue, n)
	if cap(s.mark) < n || s.mark == nil {
		s.mark = make([]int32, n)
		s.epoch = 0
	}
	s.mark = s.mark[:n]

	off, adj := nw.off, nw.adj
	cellOf := s.cellOf
	maxLen := int32(0)
	for c := 0; c < g.N(); c++ {
		members := s.cellIDs[s.cellPtr[c]:s.cellPtr[c+1]]
		if len(members) <= 1 {
			continue
		}
		for _, src := range members {
			if s.epoch == math.MaxInt32 {
				for i := range s.mark {
					s.mark[i] = 0
				}
				s.epoch = 0
			}
			s.epoch++
			s.mark[src] = s.epoch
			s.dist[src] = 0
			s.queue[0] = src
			head, tail := 0, 1
			for head < tail {
				v := s.queue[head]
				head++
				dv := s.dist[v]
				for _, u := range adj[off[v]:off[v+1]] {
					if cellOf[u] != int32(c) || s.mark[u] == s.epoch {
						continue
					}
					s.mark[u] = s.epoch
					s.dist[u] = dv + 1
					if dv+1 > maxLen {
						maxLen = dv + 1
					}
					s.queue[tail] = u
					tail++
				}
			}
		}
	}
	return int(maxLen)
}
