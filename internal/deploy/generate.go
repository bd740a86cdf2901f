package deploy

import (
	"fmt"
	"math/rand"

	"wsnva/internal/geom"
)

// Generate builds deployments until one satisfies the paper's assumptions
// for grid g (connected G_r, all cells occupied, all cell subgraphs
// connected, every adjacent cell pair directly linked), trying up to
// attempts placements drawn sequentially from r. It returns the network
// and the number of attempts used, or an error if none qualified. Dense
// deployments (n >> N, r ≥ c·√2) almost always succeed first try.
//
// Attempt k's placement is a function of the rng stream position after
// attempts 1..k-1, so results are pinned to the exact draw sequence —
// the mission server's content digests depend on this.
func Generate(n int, g *geom.Grid, txRange float64, p Placement, r *rand.Rand, attempts int) (*Network, int, error) {
	s := NewScratch()
	for a := 1; a <= attempts; a++ {
		nw := New(n, g.Terrain, txRange, p, r)
		if s.accepts(nw, g) {
			return nw, a, nil
		}
	}
	return nil, attempts, fmt.Errorf("deploy: no valid deployment in %d attempts (n=%d, grid=%dx%d, range=%v, placement=%s)",
		attempts, n, g.Cols, g.Rows, txRange, p.Name())
}

// accepts is Generate's acceptance test: CellsConnected and
// AdjacentCellsLinked on one cell CSR. It does not run Connected, because
// the two imply it: the cells tile the terrain, so every node lies in one;
// each cell is occupied and internally connected; and every 4-adjacent
// cell pair shares an edge, so any two nodes are joined through a chain of
// cells. The argument holds on the symmetrized graph that all three
// predicates read, so the accepted set is the same as with Connected.
func (s *Scratch) accepts(nw *Network, g *geom.Grid) bool {
	return s.prepCells(nw, g) && s.cellsConnected(nw) && s.cellsLinked(nw, g)
}
