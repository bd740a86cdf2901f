package deploy

import (
	"math"

	"wsnva/internal/geom"
)

// Scratch holds the reusable working storage for the validation predicates
// (union-find forest, cell-membership CSR, link bitset, BFS buffers). A
// single Scratch amortizes all allocations across repeated validations —
// Generate qualifies every candidate deployment with one — so after the
// first call at a given size the predicates allocate nothing. A Scratch is
// not safe for concurrent use; give each goroutine its own.
//
// The predicates assume a symmetric adjacency, which every disk-model
// constructor (New, FromPoints) guarantees. FromAdjacency can build
// directed graphs; on those the union-find predicates compute connectivity
// of the symmetrized graph, which may differ from the legacy directed-BFS
// reading. Directed adjacency is outside the predicates' contract.
type Scratch struct {
	parent []int32 // union-find forest, one entry per node

	cellOf   []int32 // node → grid cell index
	cellPtr  []int32 // cell CSR offsets, len cells+1
	cellIDs  []int32 // node IDs grouped by cell, ascending within each
	cellCurs []int32 // counting-sort cursors

	linked []uint64 // 2 bits per cell: east-link, south-link

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

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
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
			if s.union(int32(i), int32(j)) {
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
// a connected subgraph: a single union-find pass over the CSR edges that
// only merges endpoints sharing a cell, counting components — exactly one
// component per cell means every cell subgraph is connected. With every
// cell occupied the count cannot fall below the cell count, so the pass
// stops as soon as it reaches it.
func (s *Scratch) CellsConnected(nw *Network, g *geom.Grid) bool {
	if !s.prepCells(nw, g) {
		return false
	}
	n := nw.N()
	s.resetUF(n)
	comps, cells := n, g.N()
	off, adj := nw.off, nw.adj
	cellOf := s.cellOf
	for i := 0; i < n && comps > cells; i++ {
		ci := cellOf[i]
		for _, j := range adj[off[i]:off[i+1]] {
			if cellOf[j] == ci && s.union(int32(i), int32(j)) {
				comps--
			}
		}
	}
	return comps == cells
}

// AdjacentCellsLinked reports whether every 4-adjacent cell pair has at
// least one direct radio edge. One pass over the CSR edges sets two bits
// per cell in a bitset — "linked to my east neighbor", "linked to my south
// neighbor" — which covers every unordered adjacent pair. Only bits of
// existing pairs are ever set and none is cleared, so the pass counts the
// required bits down as each is first set and stops at zero.
func (s *Scratch) AdjacentCellsLinked(nw *Network, g *geom.Grid) bool {
	s.prepCells(nw, g)
	cells := g.N()
	cols := g.Cols
	s.linked = growU64(s.linked, (2*cells+63)/64)
	for i := range s.linked {
		s.linked[i] = 0
	}
	missing := g.Rows*(cols-1) + cols*(g.Rows-1)
	n := nw.N()
	off, adj := nw.off, nw.adj
	cellOf := s.cellOf
	for i := 0; i < n && missing > 0; i++ {
		a := cellOf[i]
		for _, j := range adj[off[i]:off[i+1]] {
			b := cellOf[j]
			if a == b {
				continue
			}
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			var bit int32
			switch hi - lo {
			case 1:
				if int(lo)%cols == cols-1 {
					continue // row wrap: horizontally consecutive indexes, not adjacent cells
				}
				bit = 2 * lo // east link
			case int32(cols):
				bit = 2*lo + 1 // south link
			default:
				continue // diagonal or longer-range crossing: not a 4-adjacency
			}
			if w, m := bit>>6, uint64(1)<<(bit&63); s.linked[w]&m == 0 {
				s.linked[w] |= m
				missing--
			}
		}
	}
	return missing == 0
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
					s.queue[tail] = int32(u)
					tail++
				}
			}
		}
	}
	return int(maxLen)
}
