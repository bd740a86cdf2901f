// Package shard is the sharded parallel simulation kernel: it partitions
// a deployment into rectangular spatial tiles, gives each tile its own
// ladder event queue (sim.Kernel), and advances all tiles in bounded
// conservative time windows of width lookahead = the minimum radio delay.
// Cross-shard transmissions travel as one outbox record per destination
// shard and are injected at the next window barrier, so no shard ever
// receives an event in its executed past and the (time, seq) total order
// within a shard is never violated.
//
// Every run takes this engine; one shard is simply the one-tile case.
// The package's tests keep a second engine — one sim.Kernel driving a
// radio.Medium — as the differential oracle and assert that every shard
// count produces results and canonical traces identical to it. See
// DESIGN.md "Sharded parallel kernel" for the window-barrier argument
// and the batch-wake semantics that make the equality hold.
package shard

import (
	"fmt"

	"wsnva/internal/deploy"
)

// Partition assigns every node of a deployment to one of Shards
// rectangular tiles covering the terrain. Tiles form a Cols×Rows grid of
// equal-area rectangles; a node belongs to the tile containing its
// position. Tiles may be empty (a shard with no nodes simply stays idle).
type Partition struct {
	Shards int
	Cols   int
	Rows   int
	// Owner[node] is the shard index owning the node.
	Owner []int32
	// Members[shard] lists the shard's nodes in ascending ID order.
	Members [][]int32
}

// NewPartition tiles the deployment terrain into shards rectangles,
// choosing the most square Cols×Rows factorization (Cols ≤ Rows), and
// assigns every node to its containing tile.
func NewPartition(nw *deploy.Network, shards int) *Partition {
	if shards <= 0 {
		panic(fmt.Sprintf("shard: need positive shard count, got %d", shards))
	}
	cols := 1
	for d := 1; d*d <= shards; d++ {
		if shards%d == 0 {
			cols = d
		}
	}
	rows := shards / cols
	p := &Partition{
		Shards:  shards,
		Cols:    cols,
		Rows:    rows,
		Owner:   make([]int32, nw.N()),
		Members: make([][]int32, shards),
	}
	t := nw.Terrain
	w, h := t.Width(), t.Height()
	xs, ys := nw.PositionsView()
	for i := 0; i < nw.N(); i++ {
		col, row := 0, 0
		if w > 0 {
			col = clampInt(int(float64(cols)*(xs[i]-t.MinX)/w), 0, cols-1)
		}
		if h > 0 {
			row = clampInt(int(float64(rows)*(ys[i]-t.MinY)/h), 0, rows-1)
		}
		s := int32(row*cols + col)
		p.Owner[i] = s
		p.Members[s] = append(p.Members[s], int32(i))
	}
	return p
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
