package deploy

import (
	"fmt"
	"math"
	"sort"
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

// buildCSR constructs the disk-model adjacency (edge iff distance ≤ Range)
// in compressed-sparse-row form. The algorithm is a uniform spatial hash
// with bucket side = Range, so candidate neighbors of a node live in its
// 3×3 bucket neighborhood, followed by two passes over the buckets: one
// counting per-node degrees, one filling rows into the flat array. Both
// passes parallelize over bucket grid rows — every worker touches a
// disjoint set of nodes (a node's row is written only while visiting its
// own bucket), so the output is independent of worker count and identical
// to a sequential build. No size is too small for the pool:
// BenchmarkBuildCSR shows it ahead from 640 nodes up at GOMAXPROCS 2,
// and level with the sequential build at GOMAXPROCS 1, where it runs
// inline.
func (nw *Network) buildCSR(pool *parallel.Pool) {
	n := len(nw.Nodes)
	nw.off = make([]int32, n+1)
	if n == 0 {
		nw.adj = nil
		return
	}
	bs := nw.Range
	cols := int(nw.Terrain.Width()/bs) + 1
	rows := int(nw.Terrain.Height()/bs) + 1
	minX, minY := nw.Terrain.MinX, nw.Terrain.MinY

	// Bucket membership as its own CSR, built by counting sort over node
	// IDs — so each bucket's member list is ascending by construction.
	bucketOf := make([]int32, n)
	bPtr := make([]int32, cols*rows+1)
	for i := 0; i < n; i++ {
		bx := int((nw.xs[i] - minX) / bs)
		by := int((nw.ys[i] - minY) / bs)
		bx = clampInt(bx, 0, cols-1)
		by = clampInt(by, 0, rows-1)
		b := int32(by*cols + bx)
		bucketOf[i] = b
		bPtr[b+1]++
	}
	for b := 0; b < cols*rows; b++ {
		bPtr[b+1] += bPtr[b]
	}
	bIDs := make([]int32, n)
	cursor := make([]int32, cols*rows)
	copy(cursor, bPtr[:cols*rows])
	for i := 0; i < n; i++ {
		b := bucketOf[i]
		bIDs[cursor[b]] = int32(i)
		cursor[b]++
	}

	// Pass 1: count each node's degree. Workers split on bucket grid rows;
	// a node's counter is only touched by the worker owning its bucket row.
	r2 := nw.Range * nw.Range
	deg := make([]int32, n)
	parallel.ForEach(pool, rows, func(by int) {
		for bx := 0; bx < cols; bx++ {
			b := by*cols + bx
			for _, i32 := range bIDs[bPtr[b]:bPtr[b+1]] {
				i := int(i32)
				xi, yi := nw.xs[i], nw.ys[i]
				d := int32(0)
				for dy := -1; dy <= 1; dy++ {
					ny := by + dy
					if ny < 0 || ny >= rows {
						continue
					}
					for dx := -1; dx <= 1; dx++ {
						nx := bx + dx
						if nx < 0 || nx >= cols {
							continue
						}
						nb := ny*cols + nx
						for _, j32 := range bIDs[bPtr[nb]:bPtr[nb+1]] {
							j := int(j32)
							ddx := xi - nw.xs[j]
							ddy := yi - nw.ys[j]
							if ddx*ddx+ddy*ddy <= r2 && j != i {
								d++
							}
						}
					}
				}
				deg[i] = d
			}
		}
	})

	// Prefix-sum degrees into row offsets, guarding the int32 offset space
	// (2^31-1 directed edges ≈ 16 GiB of []int payload — anything bigger
	// is a misconfigured density, not a workload).
	total := int64(0)
	for i := 0; i < n; i++ {
		total += int64(deg[i])
		if total > math.MaxInt32 {
			panic(fmt.Sprintf("deploy: adjacency exceeds %d directed edges; lower the density or range", math.MaxInt32))
		}
		nw.off[i+1] = int32(total)
	}
	nw.adj = make([]int, total)

	// Pass 2: fill rows. Same row-ownership argument makes the writes
	// race-free: node i's segment adj[off[i]:off[i+1]] is written only by
	// the worker visiting i's own bucket. Candidates arrive in bucket
	// (dy,dx) order — each bucket's run is ascending but runs interleave —
	// so rows are sorted afterward, skipping the ones already in order.
	parallel.ForEach(pool, rows, func(by int) {
		for bx := 0; bx < cols; bx++ {
			b := by*cols + bx
			for _, i32 := range bIDs[bPtr[b]:bPtr[b+1]] {
				i := int(i32)
				xi, yi := nw.xs[i], nw.ys[i]
				w := int(nw.off[i])
				for dy := -1; dy <= 1; dy++ {
					ny := by + dy
					if ny < 0 || ny >= rows {
						continue
					}
					for dx := -1; dx <= 1; dx++ {
						nx := bx + dx
						if nx < 0 || nx >= cols {
							continue
						}
						nb := ny*cols + nx
						for _, j32 := range bIDs[bPtr[nb]:bPtr[nb+1]] {
							j := int(j32)
							ddx := xi - nw.xs[j]
							ddy := yi - nw.ys[j]
							if ddx*ddx+ddy*ddy <= r2 && j != i {
								nw.adj[w] = j
								w++
							}
						}
					}
				}
				sortRowIfNeeded(nw.adj[nw.off[i]:nw.off[i+1]])
			}
		}
	})
}

// sortRowIfNeeded sorts a CSR row ascending, paying for sort.Ints only
// when a scan actually finds an inversion (single-bucket rows and corner
// buckets often come out ordered for free).
func sortRowIfNeeded(row []int) {
	for k := 1; k < len(row); k++ {
		if row[k] < row[k-1] {
			sort.Ints(row)
			return
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
