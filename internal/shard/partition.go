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
	"slices"

	"wsnva/internal/deploy"
)

// Partition assigns every node of a deployment to one of Shards
// rectangular tiles covering the terrain, and lays the nodes out in
// slots: each shard owns one contiguous slot range, and within it the
// nodes are in spatial order. Tiles form a Cols×Rows grid of equal-area
// rectangles; a node belongs to the tile containing its position. Tiles
// may be empty (a shard with no nodes simply stays idle).
//
// The engine indexes its per-node state by slot (DESIGN.md §7): State,
// the inboxes, and the shards' ledgers and banks. Node IDs stay at the
// edges — the app contract, the neighbor rows, the loss streams, the
// schedules, traces and results.
type Partition struct {
	Shards int
	Cols   int
	Rows   int
	// Owner[id] is the shard index owning node id.
	Owner []int32
	// Slot[id] is node id's slot and ID[slot] the node in a slot.
	Slot []int32
	ID   []int32
	// Start[s] is shard s's first slot: it owns [Start[s], Start[s+1]),
	// and Start[Shards] is the node count.
	Start []int32
}

// NewPartition tiles the deployment terrain into shards rectangles,
// choosing the most square Cols×Rows factorization (Cols ≤ Rows),
// assigns every node to its containing tile, and orders the slots by
// shard, then in the deployment's bucket order (Network.BucketOrder:
// bucket, then ID). It is the one place that decides the layout.
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
	n := nw.N()
	owner := make([]int32, n)
	t := nw.Terrain
	w, h := t.Width(), t.Height()
	xs, ys := nw.PositionsView()
	for i := 0; i < n; i++ {
		col, row := 0, 0
		if w > 0 {
			col = clampInt(int(float64(cols)*(xs[i]-t.MinX)/w), 0, cols-1)
		}
		if h > 0 {
			row = clampInt(int(float64(rows)*(ys[i]-t.MinY)/h), 0, rows-1)
		}
		owner[i] = int32(row*cols + col)
	}
	p := newLayout(shards, owner, nw.BucketOrder())
	p.Cols, p.Rows = cols, rows
	return p
}

// newLayout builds the slot maps of a partition: the slots run through
// the shards in turn, and within a shard follow order, a permutation of
// the IDs. One stable pass splits order by owner.
func newLayout(shards int, owner, order []int32) *Partition {
	n := len(owner)
	p := &Partition{Shards: shards, Owner: owner, Slot: make([]int32, n),
		ID: make([]int32, n), Start: make([]int32, shards+1)}
	for _, s := range owner {
		p.Start[s+1]++
	}
	for s := 0; s < shards; s++ {
		p.Start[s+1] += p.Start[s]
	}
	next := slices.Clone(p.Start[:shards])
	for _, id := range order {
		v := next[owner[id]]
		next[owner[id]]++
		p.ID[v], p.Slot[id] = id, v
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
