// Package regions implements the data structures of the case study: the
// identification and labeling of homogeneous (feature) regions on the
// virtual grid (Section 3.1), and the mergeable boundary summaries the
// divide-and-conquer algorithm exchanges (Section 4.1).
//
// A Summary describes the feature regions inside the part of the grid a
// process has oversight of. It holds, per region, a canonical label, the
// cell count, the bounding box, and the region's *open boundary*: the
// feature cells adjacent to grid cells not yet covered by the summary.
// Merging two summaries unions their coverage, joins regions that touch
// across the seam, and discards boundary cells that became interior — the
// "maximum data compression" the paper's spatial-correlation constraint
// exists to enable. A region whose open boundary becomes empty is closed:
// its extent can no longer grow, so only its label, count, and bounding box
// travel upward.
package regions

import (
	"fmt"
	"slices"
	"sync"

	"wsnva/internal/field"
	"wsnva/internal/geom"
)

// DSU is a union-find (disjoint-set union) structure over dense int keys.
// It backs both the ground-truth labeler and the baseline's sink-side
// labeling.
type DSU struct {
	parent []int
	rank   []byte
}

// NewDSU returns a DSU over keys 0..n-1, each its own set.
func NewDSU(n int) *DSU {
	d := &DSU{parent: make([]int, n), rank: make([]byte, n)}
	for i := range d.parent {
		d.parent[i] = i
	}
	return d
}

// Reset re-initializes the DSU over keys 0..n-1, reusing its storage when
// the capacity allows — the allocation-free path for code that runs one
// union-find per merge or per round.
func (d *DSU) Reset(n int) {
	if cap(d.parent) < n {
		d.parent = make([]int, n)
		d.rank = make([]byte, n)
	}
	d.parent = d.parent[:n]
	d.rank = d.rank[:n]
	for i := range d.parent {
		d.parent[i] = i
		d.rank[i] = 0
	}
}

// Find returns the representative of x's set, with path compression.
func (d *DSU) Find(x int) int {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

// Union merges the sets of a and b and reports whether they were distinct.
func (d *DSU) Union(a, b int) bool {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return false
	}
	if d.rank[ra] < d.rank[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	if d.rank[ra] == d.rank[rb] {
		d.rank[ra]++
	}
	return true
}

// Labeling is a ground-truth connected-component labeling of a binary map
// under 4-connectivity. Labels are canonical: a region's label is the
// minimum cell index among its members, and background cells carry -1.
type Labeling struct {
	Labels []int
	Count  int
}

// Label computes the ground-truth labeling of m with a sequential two-pass
// union-find — the centralized reference the distributed algorithm is
// checked against.
func Label(m *field.BinaryMap) *Labeling {
	g := m.Grid
	n := g.N()
	dsu := NewDSU(n)
	for idx := 0; idx < n; idx++ {
		if !m.Bits[idx] {
			continue
		}
		c := g.CoordOf(idx)
		// Union with west and north feature neighbors (scanning order makes
		// east/south redundant).
		if w := c.Step(geom.West); g.InBounds(w) && m.At(w) {
			dsu.Union(idx, g.Index(w))
		}
		if nn := c.Step(geom.North); g.InBounds(nn) && m.At(nn) {
			dsu.Union(idx, g.Index(nn))
		}
	}
	labels := make([]int, n)
	minOf := make(map[int]int)
	for idx := 0; idx < n; idx++ {
		labels[idx] = -1
		if !m.Bits[idx] {
			continue
		}
		root := dsu.Find(idx)
		if cur, ok := minOf[root]; !ok || idx < cur {
			minOf[root] = idx
		}
	}
	for idx := 0; idx < n; idx++ {
		if m.Bits[idx] {
			labels[idx] = minOf[dsu.Find(idx)]
		}
	}
	return &Labeling{Labels: labels, Count: len(minOf)}
}

// Sizes returns the cell count of every region keyed by canonical label.
func (l *Labeling) Sizes() map[int]int {
	out := make(map[int]int)
	for _, lab := range l.Labels {
		if lab >= 0 {
			out[lab]++
		}
	}
	return out
}

// BBox is a bounding box in grid coordinates, inclusive on all sides.
type BBox struct {
	MinCol, MinRow, MaxCol, MaxRow int
}

func bboxOf(c geom.Coord) BBox { return BBox{c.Col, c.Row, c.Col, c.Row} }

// Union returns the smallest box containing both a and b.
func (a BBox) Union(b BBox) BBox {
	return BBox{
		MinCol: min(a.MinCol, b.MinCol),
		MinRow: min(a.MinRow, b.MinRow),
		MaxCol: max(a.MaxCol, b.MaxCol),
		MaxRow: max(a.MaxRow, b.MaxRow),
	}
}

// Region is one feature region as known to a summary.
type Region struct {
	Label  int  // canonical label: min cell index seen so far
	Cells  int  // number of feature cells
	Box    BBox // bounding box in grid coordinates
	Closed bool // true once the open boundary emptied
	// Border holds the open-boundary cells: feature cells with at least one
	// in-grid 4-neighbor outside the summary's coverage. Sorted by cell
	// index for deterministic serialization. Empty iff Closed.
	Border []geom.Coord
}

// Summary is the boundary information one process ships to its parent. Its
// coverage is a union of disjoint grid-aligned rectangles (a single rect
// for the synchronous quad-tree, possibly several during incremental
// asynchronous merging): Merge joins rectangles that share a full edge, so
// a completed quadrant is one rectangle whatever order its parts arrived
// in.
type Summary struct {
	grid    *geom.Grid
	covered []gridRect
	regions []*Region
}

// gridRect is a rectangle of grid cells, [Col0,Col0+Cols) × [Row0,Row0+Rows).
type gridRect struct {
	Col0, Row0, Cols, Rows int
}

func (r gridRect) contains(c geom.Coord) bool {
	return c.Col >= r.Col0 && c.Col < r.Col0+r.Cols && c.Row >= r.Row0 && c.Row < r.Row0+r.Rows
}

func (r gridRect) area() int { return r.Cols * r.Rows }

// Leaf builds the level-0 summary for a single cell of the binary map: one
// open region if the cell is a feature cell, none otherwise.
func Leaf(m *field.BinaryMap, c geom.Coord) *Summary {
	s := &Summary{
		grid:    m.Grid,
		covered: []gridRect{{Col0: c.Col, Row0: c.Row, Cols: 1, Rows: 1}},
	}
	if m.At(c) {
		s.regions = append(s.regions, &Region{
			Label:  m.Grid.Index(c),
			Cells:  1,
			Box:    bboxOf(c),
			Border: []geom.Coord{c},
		})
		s.normalize()
	}
	return s
}

// LeafBlock builds a summary for a rectangular block of cells directly from
// the map — the "compute mySubGraph from intra-cell readings" step when one
// virtual node oversees a whole block at level 0. It is also used by tests
// as an oracle: LeafBlock over the full grid must equal the merge of leaves.
func LeafBlock(m *field.BinaryMap, col0, row0, cols, rows int) *Summary {
	s := &Summary{
		grid:    m.Grid,
		covered: []gridRect{{Col0: col0, Row0: row0, Cols: cols, Rows: rows}},
	}
	// Label the block's cells with a scoped union-find, then build regions.
	idxOf := func(c geom.Coord) int { return (c.Row-row0)*cols + (c.Col - col0) }
	dsu := NewDSU(cols * rows)
	for row := row0; row < row0+rows; row++ {
		for col := col0; col < col0+cols; col++ {
			c := geom.Coord{Col: col, Row: row}
			if !m.At(c) {
				continue
			}
			if w := c.Step(geom.West); col > col0 && m.At(w) {
				dsu.Union(idxOf(c), idxOf(w))
			}
			if n := c.Step(geom.North); row > row0 && m.At(n) {
				dsu.Union(idxOf(c), idxOf(n))
			}
		}
	}
	byRoot := make([]*Region, cols*rows)
	for row := row0; row < row0+rows; row++ {
		for col := col0; col < col0+cols; col++ {
			c := geom.Coord{Col: col, Row: row}
			if !m.At(c) {
				continue
			}
			root := dsu.Find(idxOf(c))
			r := byRoot[root]
			if r == nil {
				r = &Region{Label: m.Grid.Index(c), Box: bboxOf(c)}
				byRoot[root] = r
			}
			r.Cells++
			r.Box = r.Box.Union(bboxOf(c))
			if lab := m.Grid.Index(c); lab < r.Label {
				r.Label = lab
			}
			if s.isOpenBorder(c) {
				r.Border = append(r.Border, c)
			}
		}
	}
	for _, r := range byRoot {
		if r == nil {
			continue
		}
		if len(r.Border) == 0 {
			r.Closed = true
			r.Border = nil
		}
		s.regions = append(s.regions, r)
	}
	s.normalize()
	return s
}

// isOpenBorder reports whether cell c has an in-grid 4-neighbor outside the
// summary's coverage.
func (s *Summary) isOpenBorder(c geom.Coord) bool {
	for d := geom.North; d < geom.NumDirs; d++ {
		n := c.Step(d)
		if !s.grid.InBounds(n) {
			continue
		}
		if !s.covers(n) {
			return true
		}
	}
	return false
}

func (s *Summary) covers(c geom.Coord) bool {
	for _, r := range s.covered {
		if r.contains(c) {
			return true
		}
	}
	return false
}

// CoveredCells returns the number of grid cells the summary covers.
func (s *Summary) CoveredCells() int {
	total := 0
	for _, r := range s.covered {
		total += r.area()
	}
	return total
}

// Complete reports whether the summary covers the entire grid.
func (s *Summary) Complete() bool { return s.CoveredCells() == s.grid.N() }

// Count returns the number of distinct regions known to the summary.
func (s *Summary) Count() int { return len(s.regions) }

// Regions returns the summary's regions sorted by label. Callers must not
// modify the returned regions.
func (s *Summary) Regions() []*Region { return s.regions }

// TotalCells returns the total feature-cell count across regions.
func (s *Summary) TotalCells() int {
	total := 0
	for _, r := range s.regions {
		total += r.Cells
	}
	return total
}

// Size returns the summary's size in cost-model data units: a 2-unit
// header, 3 units per region (label, count, box), and 1 unit per open
// boundary cell. This is the message size charged when a summary travels
// follower → leader, so compression directly reduces energy.
func (s *Summary) Size() int64 {
	sz := int64(2 + 3*len(s.regions))
	for _, r := range s.regions {
		sz += int64(len(r.Border))
	}
	return sz
}

// Merge folds other into s. The coverages must be disjoint; regions whose
// open boundaries touch across the seam are joined, boundaries are
// re-filtered against the union coverage, and regions that sealed are
// closed. Merge supports arbitrary arrival order (coverages touching at a
// corner or not at all merge fine; nothing joins until cells become
// 4-adjacent), which is what the asynchronous incremental program model of
// Section 4.3 requires. The argument must not be used afterwards.
func (s *Summary) Merge(other *Summary) {
	if s.grid != other.grid {
		panic("regions: merging summaries over different grids")
	}
	for _, ra := range s.covered {
		for _, rb := range other.covered {
			if rectsOverlap(ra, rb) {
				panic(fmt.Sprintf("regions: overlapping coverage %+v vs %+v", ra, rb))
			}
		}
	}
	s.covered = append(s.covered, other.covered...)
	s.coalesce()
	s.regions = append(s.regions, other.regions...)

	// Join regions whose border cells are 4-adjacent. Map each border cell
	// (by grid index — coverages are disjoint, so a cell belongs to at most
	// one region's border) to its region's slot, then union slots across
	// adjacent cells. All scratch state is pooled: the merge tree of one
	// labeling round runs thousands of merges and must not pay a map, a DSU,
	// and a rebuild table per call.
	sc := mergePool.Get().(*mergeScratch)
	g := s.grid
	clear(sc.slot)
	for i, r := range s.regions {
		for _, c := range r.Border {
			sc.slot[g.Index(c)] = i
		}
	}
	sc.dsu.Reset(len(s.regions))
	for i, r := range s.regions {
		for _, c := range r.Border {
			for d := geom.North; d < geom.NumDirs; d++ {
				n := c.Step(d)
				if !g.InBounds(n) {
					continue
				}
				if j, ok := sc.slot[g.Index(n)]; ok && j != i {
					sc.dsu.Union(i, j)
				}
			}
		}
	}

	// Rebuild the region list: one region per DSU root, the first slice
	// entry of each root surviving as the merge target.
	n := len(s.regions)
	if cap(sc.byRoot) < n {
		sc.byRoot = make([]*Region, n)
	}
	byRoot := sc.byRoot[:n]
	for i := range byRoot {
		byRoot[i] = nil
	}
	for i, r := range s.regions {
		root := sc.dsu.Find(i)
		m := byRoot[root]
		if m == nil {
			byRoot[root] = r
			continue
		}
		if r.Label < m.Label {
			m.Label = r.Label
		}
		m.Cells += r.Cells
		m.Box = m.Box.Union(r.Box)
		m.Border = append(m.Border, r.Border...)
		m.Closed = false
	}
	s.regions = s.regions[:0]
	for i, r := range byRoot {
		byRoot[i] = nil // don't retain regions from the pool
		if r == nil {
			continue
		}
		// Filter the border against the enlarged coverage.
		kept := r.Border[:0]
		for _, c := range r.Border {
			if s.isOpenBorder(c) {
				kept = append(kept, c)
			}
		}
		r.Border = kept
		if len(r.Border) == 0 {
			r.Closed = true
			r.Border = nil
		}
		s.regions = append(s.regions, r)
	}
	mergePool.Put(sc)
	s.normalize()
}

// mergeScratch holds the per-merge working state Merge reuses through a
// sync.Pool: the border-cell → region-slot index, the union-find, and the
// root rebuild table.
type mergeScratch struct {
	slot   map[int]int
	dsu    DSU
	byRoot []*Region
}

var mergePool = sync.Pool{New: func() any { return &mergeScratch{slot: make(map[int]int)} }}

// coalesce joins coverage rectangles that share a full edge until no two
// do. Without it a level-k quad-tree summary would carry 4^k unit
// rectangles, and every coverage test would scan them all.
func (s *Summary) coalesce() {
	for joined := true; joined; {
		joined = false
		for i := 0; i < len(s.covered); i++ {
			for j := i + 1; j < len(s.covered); j++ {
				if u, ok := joinRects(s.covered[i], s.covered[j]); ok {
					s.covered[i] = u
					s.covered = slices.Delete(s.covered, j, j+1)
					joined = true
					j = i // the union may join a rect already passed over
				}
			}
		}
	}
}

// joinRects returns the union of a and b when it is itself a rectangle,
// i.e. when they share a full edge.
func joinRects(a, b gridRect) (gridRect, bool) {
	if a.Row0 == b.Row0 && a.Rows == b.Rows && (a.Col0+a.Cols == b.Col0 || b.Col0+b.Cols == a.Col0) {
		return gridRect{Col0: min(a.Col0, b.Col0), Row0: a.Row0, Cols: a.Cols + b.Cols, Rows: a.Rows}, true
	}
	if a.Col0 == b.Col0 && a.Cols == b.Cols && (a.Row0+a.Rows == b.Row0 || b.Row0+b.Rows == a.Row0) {
		return gridRect{Col0: a.Col0, Row0: min(a.Row0, b.Row0), Cols: a.Cols, Rows: a.Rows + b.Rows}, true
	}
	return a, false
}

func rectsOverlap(a, b gridRect) bool {
	return a.Col0 < b.Col0+b.Cols && b.Col0 < a.Col0+a.Cols &&
		a.Row0 < b.Row0+b.Rows && b.Row0 < a.Row0+a.Rows
}

// normalize sorts regions by label and borders by cell index so summaries
// are deterministic regardless of merge order. Sort keys are unique (cell
// indices within a summary, labels across regions), so any comparison sort
// yields the same order; slices.SortFunc avoids sort.Slice's interface and
// closure allocations on this per-merge path.
func (s *Summary) normalize() {
	g := s.grid
	for _, r := range s.regions {
		slices.SortFunc(r.Border, func(a, b geom.Coord) int {
			return g.Index(a) - g.Index(b)
		})
	}
	slices.SortFunc(s.regions, func(a, b *Region) int { return a.Label - b.Label })
}

// Equal reports whether two summaries carry identical region information
// (labels, counts, boxes, closed flags, borders) over the same set of
// covered cells (regardless of how the coverage is decomposed into
// rectangles). Used by tests to prove merge-order independence and by the
// wire codec's corruption tests.
func (s *Summary) Equal(other *Summary) bool {
	if s.CoveredCells() != other.CoveredCells() || len(s.regions) != len(other.regions) {
		return false
	}
	// Equal totals plus one-directional containment imply set equality.
	for _, r := range s.covered {
		for col := r.Col0; col < r.Col0+r.Cols; col++ {
			for row := r.Row0; row < r.Row0+r.Rows; row++ {
				if !other.covers(geom.Coord{Col: col, Row: row}) {
					return false
				}
			}
		}
	}
	for i, r := range s.regions {
		o := other.regions[i]
		if r.Label != o.Label || r.Cells != o.Cells || r.Box != o.Box || r.Closed != o.Closed || len(r.Border) != len(o.Border) {
			return false
		}
		for j := range r.Border {
			if r.Border[j] != o.Border[j] {
				return false
			}
		}
	}
	return true
}

// CoverRect is an exported view of one covered rectangle, for the wire
// codec and diagnostics.
type CoverRect struct {
	Col0, Row0, Cols, Rows int
}

// CoveredRects returns the number of disjoint rectangles making up the
// summary's coverage.
func (s *Summary) CoveredRects() int { return len(s.covered) }

// CoveredRectList returns the coverage rectangles.
func (s *Summary) CoveredRectList() []CoverRect {
	out := make([]CoverRect, len(s.covered))
	for i, r := range s.covered {
		out[i] = CoverRect{Col0: r.Col0, Row0: r.Row0, Cols: r.Cols, Rows: r.Rows}
	}
	return out
}

// Reassemble reconstructs a summary from decoded wire parts: the grid both
// ends share, the coverage rectangles, and the region records (whose Border
// slices are adopted, not copied). It normalizes ordering so a reassembled
// summary is Equal to the original.
func Reassemble(g *geom.Grid, rects []CoverRect, regs []Region) *Summary {
	s := &Summary{
		grid:    g,
		covered: make([]gridRect, 0, len(rects)),
		regions: make([]*Region, 0, len(regs)),
	}
	for _, r := range rects {
		s.covered = append(s.covered, gridRect{Col0: r.Col0, Row0: r.Row0, Cols: r.Cols, Rows: r.Rows})
	}
	for i := range regs {
		r := regs[i]
		if len(r.Border) == 0 {
			r.Border = nil
		}
		s.regions = append(s.regions, &r)
	}
	s.normalize()
	return s
}

// Clone returns a deep copy of the summary. Distributed storage nodes hand
// out clones so queries can merge them without destroying the stored data.
func (s *Summary) Clone() *Summary {
	out := &Summary{
		grid:    s.grid,
		covered: append([]gridRect(nil), s.covered...),
		regions: make([]*Region, len(s.regions)),
	}
	for i, r := range s.regions {
		cp := *r
		cp.Border = append([]geom.Coord(nil), r.Border...)
		if len(cp.Border) == 0 {
			cp.Border = nil
		}
		out.regions[i] = &cp
	}
	return out
}

// Labels returns the canonical labels of all regions, sorted.
func (s *Summary) Labels() []int {
	out := make([]int, len(s.regions))
	for i, r := range s.regions {
		out[i] = r.Label
	}
	return out
}

func (s *Summary) String() string {
	return fmt.Sprintf("Summary{covered=%d cells, regions=%d, size=%d units}",
		s.CoveredCells(), len(s.regions), s.Size())
}
