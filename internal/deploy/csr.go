package deploy

import (
	"fmt"
	"math"
	"sync"

	"wsnva/internal/parallel"
)

// deployPool is the package's lazily created shared worker pool, sized to
// GOMAXPROCS. Nesting on the experiment harness's own pool is safe: pools
// are semaphores and the submitting goroutine always participates, so a
// deploy build inside a parallel experiment trial degrades to inline
// execution rather than deadlocking.
var deployPool = sync.OnceValue(func() *parallel.Pool { return parallel.New(0) })

// sharedPool returns the package-wide pool for implicit parallel builds.
func sharedPool() *parallel.Pool { return deployPool() }

// bucketize sorts the nodes into bucket order over a uniform spatial hash
// with bucket side = Range: buckets row-major over the terrain, IDs
// ascending within each (one bucket when Range is not positive). It keeps
// the order in nw.order and returns the bucket grid, each node's bucket,
// and bPtr, where bucket b holds order[bPtr[b]:bPtr[b+1]]. Every
// constructor runs it, so every network carries its order.
func (nw *Network) bucketize() (cols, rows int, bucketOf, bPtr []int32) {
	n := len(nw.Nodes)
	bs := nw.Range
	cols, rows = 1, 1
	if bs > 0 {
		cols = int(nw.Terrain.Width()/bs) + 1
		rows = int(nw.Terrain.Height()/bs) + 1
	}
	minX, minY := nw.Terrain.MinX, nw.Terrain.MinY
	bucketOf = make([]int32, n)
	bPtr = make([]int32, cols*rows+1)
	for i := 0; i < n; i++ {
		b := int32(0)
		if bs > 0 {
			bx := clampInt(int((nw.xs[i]-minX)/bs), 0, cols-1)
			by := clampInt(int((nw.ys[i]-minY)/bs), 0, rows-1)
			b = int32(by*cols + bx)
		}
		bucketOf[i] = b
		bPtr[b+1]++
	}
	for b := 0; b < cols*rows; b++ {
		bPtr[b+1] += bPtr[b]
	}
	nw.order = make([]int32, n)
	cursor := make([]int32, cols*rows)
	copy(cursor, bPtr[:cols*rows])
	for i, b := range bucketOf {
		nw.order[cursor[b]] = int32(i)
		cursor[b]++
	}
	return cols, rows, bucketOf, bPtr
}

// buildCSR constructs the disk-model adjacency (edge iff distance ≤ Range)
// in compressed-sparse-row form over the bucket order, so a node's
// candidate neighbors live in its 3×3 bucket neighborhood. The nodes'
// positions are copied alongside the order, which makes a neighborhood
// three contiguous runs, one per bucket row. Two passes follow, each
// parallel over bucket rows:
//
//   - count: each node scans its three runs for its degree;
//   - fill: bucket row r walks the senders of rows r−1…r+1 in ascending
//     ID, a three-way merge of per-row ID lists, and appends each sender
//     to the rows of its in-range receivers in row r, so every CSR row is
//     ascending as written.
//
// A bucket row's task writes only its own receivers' degrees, cursors and
// rows, so the output is independent of the pool and identical to a
// sequential build. No size is too small for the pool: BenchmarkBuildCSR
// shows it ahead from 640 nodes up at GOMAXPROCS 2, and level with the
// sequential build at GOMAXPROCS 1, where it runs inline.
func (nw *Network) buildCSR(pool *parallel.Pool) {
	n := len(nw.Nodes)
	cols, rows, bucketOf, bPtr := nw.bucketize()
	nw.off = make([]int32, n+1)
	if n == 0 {
		nw.adj = nil
		return
	}
	xs, ys := nw.xs, nw.ys

	// Position p of the bucket order holds node ids[p] at (px[p], py[p]).
	// Row r's positions run from bPtr[r*cols] to bPtr[(r+1)*cols], and
	// rowIDs holds the same nodes over the same span with IDs ascending.
	ids := nw.order
	px := make([]float64, n)
	py := make([]float64, n)
	for p, id := range ids {
		px[p], py[p] = xs[id], ys[id]
	}
	rowIDs := make([]int32, n)
	rowCursor := make([]int32, rows)
	for r := range rowCursor {
		rowCursor[r] = bPtr[r*cols]
	}
	for i, b := range bucketOf {
		r := b / int32(cols)
		rowIDs[rowCursor[r]] = int32(i)
		rowCursor[r]++
	}

	// The hit test both passes share, receiver minus sender in that order:
	// the float64 conversions keep the compiler from fusing either pass's
	// arithmetic into an FMA, so both passes see the same edges.
	r2 := nw.Range * nw.Range

	// Pass 1: each receiver's degree, stored at off[id+1].
	parallel.ForEach(pool, rows, func(r int) {
		for c := 0; c < cols; c++ {
			c0, c1 := max(c-1, 0), min(c+1, cols-1)
			b := r*cols + c
			for p := bPtr[b]; p < bPtr[b+1]; p++ {
				x, y := px[p], py[p]
				d := int32(0)
				for sr := max(r-1, 0); sr <= min(r+1, rows-1); sr++ {
					lo, hi := bPtr[sr*cols+c0], bPtr[sr*cols+c1+1]
					sx, sy := px[lo:hi], py[lo:hi]
					sy = sy[:len(sx)]
					for q, sxq := range sx {
						dx, dy := x-sxq, y-sy[q]
						if float64(dx*dx)+float64(dy*dy) <= r2 {
							d++
						}
					}
				}
				// The scan counted the node itself; take it out by the same
				// test here rather than with a self check in the loop, which
				// measured about a third slower.
				if dx, dy := x-x, y-y; float64(dx*dx)+float64(dy*dy) <= r2 {
					d--
				}
				nw.off[ids[p]+1] = d
			}
		}
	})

	// Prefix-sum degrees into row offsets, guarding the int32 offset space
	// (2^31-1 directed edges ≈ 8 GiB of neighbor IDs — anything bigger is
	// a misconfigured density, not a workload).
	total := int64(0)
	for i := 1; i <= n; i++ {
		total += int64(nw.off[i])
		if total > math.MaxInt32 {
			panic(fmt.Sprintf("deploy: adjacency exceeds %d directed edges; lower the density or range", math.MaxInt32))
		}
		nw.off[i] = int32(total)
	}
	nw.adj = make([]int32, total)

	// Pass 2: fill rows. next[p] is the next free slot in node ids[p]'s
	// row; a miscount between the passes panics below rather than leaving
	// a corrupted row.
	next := make([]int32, n)
	parallel.ForEach(pool, rows, func(r int) {
		base := r * cols
		for p := bPtr[base]; p < bPtr[base+cols]; p++ {
			next[p] = nw.off[ids[p]]
		}
		var head, end [3]int32
		for k := range head {
			if sr := r - 1 + k; sr >= 0 && sr < rows {
				head[k], end[k] = bPtr[sr*cols], bPtr[(sr+1)*cols]
			}
		}
		for {
			k, j := -1, int32(n)
			for m := range head {
				if head[m] < end[m] && rowIDs[head[m]] < j {
					k, j = m, rowIDs[head[m]]
				}
			}
			if k < 0 {
				break
			}
			head[k]++
			c := int(bucketOf[j]) - (r-1+k)*cols
			x, y := xs[j], ys[j]
			lo, hi := bPtr[base+max(c-1, 0)], bPtr[base+min(c+1, cols-1)+1]
			rx, ry, rid, rnext := px[lo:hi], py[lo:hi], ids[lo:hi], next[lo:hi]
			ry, rid, rnext = ry[:len(rx)], rid[:len(rx)], rnext[:len(rx)]
			for q, rxq := range rx {
				dx, dy := rxq-x, ry[q]-y
				if float64(dx*dx)+float64(dy*dy) <= r2 && rid[q] != j {
					nw.adj[rnext[q]] = j
					rnext[q]++
				}
			}
		}
	})
	for p, id := range ids {
		if next[p] != nw.off[id+1] {
			panic(fmt.Sprintf("deploy: CSR fill wrote %d neighbors of node %d, counted %d",
				next[p]-nw.off[id], id, nw.off[id+1]-nw.off[id]))
		}
	}
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
