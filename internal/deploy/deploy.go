// Package deploy models the underlying physical sensor network of Section
// 5.1: n identical nodes placed on a square terrain of side L, each with
// transmission range r, forming the real-network graph G_r = (V_r, E_r)
// where (i,j) ∈ E_r iff δ(v_i, v_j) ≤ r.
//
// The package provides the placement generators the experiments sweep over
// (uniform random, perturbed grid, clustered), neighbor construction via a
// uniform spatial hash (O(n) expected instead of O(n²)) into a flat CSR
// adjacency — one offsets array plus one flat neighbor array for the whole
// graph, counted and then filled in ascending order one bucket row per
// pool task — and the connectivity predicates the paper assumes: G_r
// connected, every grid cell occupied, every per-cell induced subgraph
// connected, and every adjacent cell pair directly linked. The predicates
// run allocation-free on a reusable Scratch (union-find and a cell-
// membership CSR instead of map-based BFS) and stop scanning edges once
// their answer is fixed, and Generate checks only the cell predicates,
// which imply G_r connected, so it can qualify million-node deployments
// without the validation pass dominating wall time.
package deploy

import (
	"fmt"
	"math"
	"math/rand"

	"wsnva/internal/geom"
	"wsnva/internal/parallel"
)

// Node is one physical sensor node.
type Node struct {
	ID  int
	Pos geom.Point
}

// Network is an immutable physical deployment plus its connectivity graph.
//
// Adjacency is stored in compressed-sparse-row form: off has one entry per
// node plus a terminator, and adj holds every neighbor list back to back
// as int32 IDs, each row sorted ascending. Neighbors(id) is a zero-copy
// subslice of adj. Positions are additionally kept as flat xs/ys arrays
// (struct-of-arrays), and the nodes' spatial bucket order is kept from
// construction; the sharded kernel reads all three in place.
type Network struct {
	Nodes   []Node
	Range   float64
	Terrain geom.Rect

	off    []int32 // CSR row offsets, len N()+1
	adj    []int32 // CSR neighbor IDs, len = number of directed edges
	order  []int32 // node IDs in bucket order (see bucketize)
	xs, ys []float64
}

// Placement generates node positions on a terrain.
type Placement interface {
	// Place returns n points on terrain using rng for randomness.
	Place(n int, terrain geom.Rect, rng *rand.Rand) []geom.Point
	// Name identifies the placement for experiment tables.
	Name() string
}

// UniformRandom places nodes independently and uniformly at random — the
// paper's "arbitrarily and densely deployed" default.
type UniformRandom struct{}

// Place implements Placement.
func (UniformRandom) Place(n int, terrain geom.Rect, rng *rand.Rand) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: terrain.MinX + rng.Float64()*terrain.Width(),
			Y: terrain.MinY + rng.Float64()*terrain.Height(),
		}
	}
	return pts
}

// Name implements Placement.
func (UniformRandom) Name() string { return "uniform" }

// PerturbedGrid places nodes on a regular √n × √n lattice jittered by a
// fraction of the lattice pitch — a model of a planned deployment with
// placement error. Jitter is the per-axis maximum offset as a fraction of
// the pitch (0 = perfect lattice, 0.5 = up to half a pitch).
type PerturbedGrid struct {
	Jitter float64
}

// Place implements Placement. If n is not a perfect square the lattice is
// the smallest square that fits n and the extra sites are dropped uniformly.
func (p PerturbedGrid) Place(n int, terrain geom.Rect, rng *rand.Rand) []geom.Point {
	side := int(math.Ceil(math.Sqrt(float64(n))))
	pitchX := terrain.Width() / float64(side)
	pitchY := terrain.Height() / float64(side)
	all := make([]geom.Point, 0, side*side)
	for row := 0; row < side; row++ {
		for col := 0; col < side; col++ {
			base := geom.Point{
				X: terrain.MinX + (float64(col)+0.5)*pitchX,
				Y: terrain.MinY + (float64(row)+0.5)*pitchY,
			}
			jx := (rng.Float64()*2 - 1) * p.Jitter * pitchX
			jy := (rng.Float64()*2 - 1) * p.Jitter * pitchY
			pt := base.Add(jx, jy)
			pt.X = clamp(pt.X, terrain.MinX, terrain.MaxX-1e-9)
			pt.Y = clamp(pt.Y, terrain.MinY, terrain.MaxY-1e-9)
			all = append(all, pt)
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:n]
}

// Name implements Placement.
func (p PerturbedGrid) Name() string { return fmt.Sprintf("grid-j%.2f", p.Jitter) }

// Clustered places nodes around k uniformly chosen cluster centers with
// Gaussian spread — the non-uniform deployment for which the paper notes a
// tree virtual topology may suit better; the experiments use it to stress
// the occupancy assumption.
type Clustered struct {
	Clusters int
	Spread   float64 // std-dev as a fraction of terrain side
}

// Place implements Placement.
func (c Clustered) Place(n int, terrain geom.Rect, rng *rand.Rand) []geom.Point {
	k := c.Clusters
	if k <= 0 {
		k = 4
	}
	centers := UniformRandom{}.Place(k, terrain, rng)
	sigmaX := c.Spread * terrain.Width()
	sigmaY := c.Spread * terrain.Height()
	pts := make([]geom.Point, n)
	for i := range pts {
		ctr := centers[rng.Intn(k)]
		pts[i] = geom.Point{
			X: clamp(ctr.X+rng.NormFloat64()*sigmaX, terrain.MinX, terrain.MaxX-1e-9),
			Y: clamp(ctr.Y+rng.NormFloat64()*sigmaY, terrain.MinY, terrain.MaxY-1e-9),
		}
	}
	return pts
}

// Name implements Placement.
func (c Clustered) Name() string { return fmt.Sprintf("clustered-%d", c.Clusters) }

// WithHole wraps a placement and keeps nodes out of a forbidden rectangle
// (a lake, a building, a cliff) by rejection sampling — the deployment
// irregularity that breaks cell-occupancy assumptions in practice.
type WithHole struct {
	Inner Placement
	Hole  geom.Rect
}

// maxFruitlessRounds bounds WithHole's rejection sampling: after this many
// consecutive whole batches with zero accepted points, the remaining points
// are placed deterministically instead of looping forever.
const maxFruitlessRounds = 32

// Place implements Placement. Points landing in the hole are redrawn from
// the inner placement (one candidate at a time, so any inner distribution
// works). After maxFruitlessRounds consecutive fruitless rejection rounds
// the remaining points are placed at the terrain corner farthest from the
// hole center rather than looping forever — a hole covering (almost) the
// whole terrain therefore terminates with the leftovers stacked on that
// corner, even when the corner itself lies inside the hole.
func (w WithHole) Place(n int, terrain geom.Rect, rng *rand.Rand) []geom.Point {
	out := make([]geom.Point, 0, n)
	fruitless := 0
	for len(out) < n {
		batch := w.Inner.Place(n-len(out), terrain, rng)
		accepted := 0
		for _, p := range batch {
			if !w.Hole.Contains(p) {
				out = append(out, p)
				accepted++
			}
		}
		if accepted > 0 {
			fruitless = 0
			continue
		}
		fruitless++
		if fruitless >= maxFruitlessRounds {
			corner := farthestCorner(terrain, w.Hole.Center())
			for len(out) < n {
				out = append(out, corner)
			}
		}
	}
	return out
}

// farthestCorner returns the terrain corner farthest from p, nudged inside
// the half-open terrain rectangle (the same 1e-9 convention the placement
// clamps use). Ties resolve to the first corner in NW, NE, SW, SE order.
func farthestCorner(terrain geom.Rect, p geom.Point) geom.Point {
	corners := [4]geom.Point{
		{X: terrain.MinX, Y: terrain.MinY},
		{X: terrain.MaxX - 1e-9, Y: terrain.MinY},
		{X: terrain.MinX, Y: terrain.MaxY - 1e-9},
		{X: terrain.MaxX - 1e-9, Y: terrain.MaxY - 1e-9},
	}
	best := corners[0]
	for _, c := range corners[1:] {
		if c.Dist2(p) > best.Dist2(p) {
			best = c
		}
	}
	return best
}

// Name implements Placement.
func (w WithHole) Name() string { return w.Inner.Name() + "+hole" }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// New builds a network of n nodes placed by p on terrain with transmission
// range txRange. Randomness comes from r; placement draws are strictly
// sequential on r, so positions are a pure function of the rng stream.
// Neighbor construction parallelizes on a shared pool; the adjacency is
// byte-identical either way.
func New(n int, terrain geom.Rect, txRange float64, p Placement, r *rand.Rand) *Network {
	return NewWithPool(n, terrain, txRange, p, r, sharedPool())
}

// NewWithPool is New with an explicit worker pool for neighbor
// construction; nil runs strictly sequentially. The built network is
// identical for every pool — only wall time changes.
func NewWithPool(n int, terrain geom.Rect, txRange float64, p Placement, r *rand.Rand, pool *parallel.Pool) *Network {
	if n <= 0 {
		panic(fmt.Sprintf("deploy: need positive node count, got %d", n))
	}
	if txRange <= 0 {
		panic(fmt.Sprintf("deploy: need positive range, got %v", txRange))
	}
	pts := p.Place(n, terrain, r)
	nw := fromPlaced(pts, terrain, txRange)
	nw.buildCSR(pool)
	return nw
}

// FromPoints builds a network from explicit positions, for tests and for
// replaying recorded deployments.
func FromPoints(pts []geom.Point, terrain geom.Rect, txRange float64) *Network {
	nw := fromPlaced(pts, terrain, txRange)
	nw.buildCSR(sharedPool())
	return nw
}

// fromPlaced fills the node table and the struct-of-arrays position views
// from placed points, leaving the adjacency to the caller.
func fromPlaced(pts []geom.Point, terrain geom.Rect, txRange float64) *Network {
	nodes := make([]Node, len(pts))
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, pt := range pts {
		nodes[i] = Node{ID: i, Pos: pt}
		xs[i] = pt.X
		ys[i] = pt.Y
	}
	return &Network{Nodes: nodes, Range: txRange, Terrain: terrain, xs: xs, ys: ys}
}

// FromAdjacency builds a network from explicit positions and an explicit
// adjacency list, bypassing the disk-model neighbor construction. It
// exists for tests and tools that need a connectivity graph the geometry
// would not produce — including deliberately malformed ones: adj is taken
// as given (flattened into the CSR arrays row by row, order preserved), so
// a caller can hand the radio layer an unsorted list and assert it gets
// rejected. adj must have one entry per point; entries may be nil. The
// bucket order is computed from the positions and txRange as for a
// disk-model network.
func FromAdjacency(pts []geom.Point, terrain geom.Rect, txRange float64, adj [][]int) *Network {
	if len(adj) != len(pts) {
		panic(fmt.Sprintf("deploy: %d adjacency lists for %d nodes", len(adj), len(pts)))
	}
	nw := fromPlaced(pts, terrain, txRange)
	total := 0
	for _, row := range adj {
		total += len(row)
	}
	nw.off = make([]int32, len(adj)+1)
	nw.adj = make([]int32, 0, total)
	for i, row := range adj {
		for _, j := range row {
			nw.adj = append(nw.adj, int32(j))
		}
		nw.off[i+1] = int32(len(nw.adj))
	}
	nw.bucketize()
	return nw
}

// N returns the number of nodes.
func (nw *Network) N() int { return len(nw.Nodes) }

// Neighbors returns the sorted IDs of nodes within range of node id (the
// NBR_i of Section 5.1) as a zero-copy view of the CSR row. The caller
// must not modify the returned slice.
func (nw *Network) Neighbors(id int) []int32 { return nw.adj[nw.off[id]:nw.off[id+1]] }

// Degree returns the number of neighbors of node id.
func (nw *Network) Degree(id int) int { return int(nw.off[id+1] - nw.off[id]) }

// CSRView exposes the raw compressed-sparse-row adjacency: offsets has
// N()+1 entries and elems[offsets[i]:offsets[i+1]] is node i's neighbor
// row. Consumers that stream the whole edge set (the radio layer's sort
// check) read it directly instead of re-slicing per node. Both slices are
// shared with the network — read only.
func (nw *Network) CSRView() (offsets, elems []int32) { return nw.off, nw.adj }

// BucketOrder returns every node ID once, in the spatial order the
// network was built in: buckets of side Range, row-major over the
// terrain, IDs ascending within a bucket (all nodes in one bucket when
// Range is not positive). A node's neighbors lie in its 3×3 bucket
// neighborhood, so they sit in a few short runs of the order; the
// sharded kernel lays its slots out along it. Shared — read only.
func (nw *Network) BucketOrder() []int32 { return nw.order }

// PositionsView exposes the flat struct-of-arrays position vectors
// (xs[i], ys[i] = node i's coordinates). The sharded kernel's SoA state
// aliases these instead of copying. Both slices are shared — read only.
func (nw *Network) PositionsView() (xs, ys []float64) { return nw.xs, nw.ys }

// AvgDegree returns the mean node degree, a standard density summary.
func (nw *Network) AvgDegree() float64 {
	return float64(len(nw.adj)) / float64(len(nw.Nodes))
}

// Connected reports whether G_r is connected (the paper's standing
// assumption). Callers validating many candidate deployments should hold
// a Scratch and call its Connected to amortize the working storage.
func (nw *Network) Connected() bool { return NewScratch().Connected(nw) }

// CellMembers returns, for each grid cell, the IDs of nodes inside it —
// the EMUL(i,j) sets of Section 5.1.
func (nw *Network) CellMembers(g *geom.Grid) [][]int {
	members := make([][]int, g.N())
	for i, nd := range nw.Nodes {
		idx := g.Index(g.CellOf(nd.Pos))
		members[idx] = append(members[idx], i)
	}
	return members
}

// OccupancyOK reports whether every cell of g holds at least one node —
// the coverage precondition for topology emulation.
func (nw *Network) OccupancyOK(g *geom.Grid) bool {
	counts := make([]int32, g.N())
	for i := range nw.Nodes {
		counts[g.Index(g.CellOf(geom.Point{X: nw.xs[i], Y: nw.ys[i]}))]++
	}
	for _, c := range counts {
		if c == 0 {
			return false
		}
	}
	return true
}

// CellsConnected reports whether the subgraph induced by each cell's
// members is connected — the paper's assumption on EMUL(i,j). Empty cells
// fail (they violate occupancy first). See Scratch.CellsConnected for the
// allocation-free form.
func (nw *Network) CellsConnected(g *geom.Grid) bool {
	return NewScratch().CellsConnected(nw, g)
}

// AdjacentCellsLinked reports whether every pair of 4-adjacent cells of g
// is joined by at least one direct radio edge. The Section 5.1 emulation
// protocol needs this: forwarding paths stay inside a cell until a node
// with a direct cross-boundary neighbor hands the message over, so a cell
// pair with no direct edge is unroutable no matter how connected G_r is.
// See Scratch.AdjacentCellsLinked for the allocation-free form.
func (nw *Network) AdjacentCellsLinked(g *geom.Grid) bool {
	return NewScratch().AdjacentCellsLinked(nw, g)
}

// MaxIntraCellPathLen returns the maximum, over all cells, of the longest
// shortest-path (in hops, within the cell-induced subgraph) between any
// pair of nodes in the same cell. Section 5.1 claims setup latency is
// proportional to this quantity; experiment E5 verifies it. Cells must be
// connected.
func (nw *Network) MaxIntraCellPathLen(g *geom.Grid) int {
	return NewScratch().MaxIntraCellPathLen(nw, g)
}
