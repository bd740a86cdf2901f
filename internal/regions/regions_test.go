package regions

import (
	"math/rand"
	"testing"

	"wsnva/internal/field"
	"wsnva/internal/geom"
)

func TestDSUBasics(t *testing.T) {
	d := NewDSU(5)
	for i := 0; i < 5; i++ {
		if d.Find(i) != i {
			t.Errorf("fresh element %d not its own root", i)
		}
	}
	if !d.Union(0, 1) {
		t.Error("first union should report merged")
	}
	if d.Union(0, 1) {
		t.Error("repeat union should report already joined")
	}
	d.Union(2, 3)
	d.Union(1, 3)
	if d.Find(0) != d.Find(2) {
		t.Error("transitive union failed")
	}
	if d.Find(4) == d.Find(0) {
		t.Error("element 4 should remain separate")
	}
}

func TestLabelSimpleMaps(t *testing.T) {
	g := geom.NewSquareGrid(4, 4)
	cases := []struct {
		rows  []string
		count int
	}{
		{[]string{"....", "....", "....", "...."}, 0},
		{[]string{"####", "####", "####", "####"}, 1},
		{[]string{"#...", "....", "....", "...#"}, 2},
		{[]string{"#.#.", ".#.#", "#.#.", ".#.#"}, 8}, // diagonal is NOT connected
		{[]string{"##..", "##..", "..##", "..##"}, 2},
		{[]string{"###.", "#.#.", "###.", "...."}, 1}, // ring
	}
	for i, c := range cases {
		m := field.Parse(g, c.rows...)
		l := Label(m)
		if l.Count != c.count {
			t.Errorf("case %d: count = %d, want %d", i, l.Count, c.count)
		}
	}
}

func TestLabelCanonicalAndSizes(t *testing.T) {
	g := geom.NewSquareGrid(4, 4)
	m := field.Parse(g,
		"##..",
		".#..",
		"....",
		"..##",
	)
	l := Label(m)
	if l.Count != 2 {
		t.Fatalf("count = %d, want 2", l.Count)
	}
	// First region {0,1,5} has min index 0; second {14,15} has min index 14.
	if l.Labels[0] != 0 || l.Labels[1] != 0 || l.Labels[5] != 0 {
		t.Errorf("region 1 labels: %v", l.Labels)
	}
	if l.Labels[14] != 14 || l.Labels[15] != 14 {
		t.Errorf("region 2 labels: %v", l.Labels)
	}
	if l.Labels[2] != -1 {
		t.Error("background should be -1")
	}
	sizes := l.Sizes()
	if sizes[0] != 3 || sizes[14] != 2 {
		t.Errorf("sizes = %v", sizes)
	}
}

func TestLeafSummary(t *testing.T) {
	g := geom.NewSquareGrid(4, 4)
	m := field.Parse(g, "#...", "....", "....", "....")
	feat := Leaf(m, geom.Coord{Col: 0, Row: 0})
	if feat.Count() != 1 || feat.TotalCells() != 1 {
		t.Errorf("feature leaf: %v", feat)
	}
	r := feat.Regions()[0]
	if r.Label != 0 || r.Closed || len(r.Border) != 1 {
		t.Errorf("region = %+v", r)
	}
	bg := Leaf(m, geom.Coord{Col: 1, Row: 0})
	if bg.Count() != 0 {
		t.Errorf("background leaf has %d regions", bg.Count())
	}
	if bg.CoveredCells() != 1 {
		t.Error("leaf covers one cell")
	}
}

// mergeAll merges leaf summaries in the given index order and returns the
// final summary.
func mergeAll(m *field.BinaryMap, order []int) *Summary {
	g := m.Grid
	acc := Leaf(m, g.CoordOf(order[0]))
	for _, idx := range order[1:] {
		acc.Merge(Leaf(m, g.CoordOf(idx)))
	}
	return acc
}

func TestMergeMatchesGroundTruth(t *testing.T) {
	g := geom.NewSquareGrid(8, 8)
	maps := []*field.BinaryMap{
		field.Parse(g,
			"##......",
			"##...##.",
			".....##.",
			"...#....",
			"..###...",
			"...#....",
			"#......#",
			"#......#",
		),
		field.Threshold(field.RandomBlobs(4, g.Terrain, 0.8, 2.0, rand.New(rand.NewSource(5))), g, 0.5, 0),
		field.Threshold(field.Stripes{Width: 2, High: 1, Low: 0}, g, 0.5, 0),
	}
	for mi, m := range maps {
		truth := Label(m)
		order := make([]int, g.N())
		for i := range order {
			order[i] = i
		}
		final := mergeAll(m, order)
		if !final.Complete() {
			t.Fatalf("map %d: merge of all leaves should cover grid", mi)
		}
		if final.Count() != truth.Count {
			t.Errorf("map %d: distributed count %d != truth %d", mi, final.Count(), truth.Count)
		}
		if final.TotalCells() != m.Count() {
			t.Errorf("map %d: cells %d != map %d", mi, final.TotalCells(), m.Count())
		}
		// Canonical labels must agree with ground truth exactly.
		sizes := truth.Sizes()
		for _, r := range final.Regions() {
			if !r.Closed {
				t.Errorf("map %d: region %d still open after full coverage", mi, r.Label)
			}
			if sizes[r.Label] != r.Cells {
				t.Errorf("map %d: region %d cells %d, truth %d", mi, r.Label, r.Cells, sizes[r.Label])
			}
		}
	}
}

func TestMergeOrderIndependence(t *testing.T) {
	g := geom.NewSquareGrid(6, 6)
	m := field.Threshold(field.RandomBlobs(3, g.Terrain, 0.8, 1.6, rand.New(rand.NewSource(11))), g, 0.5, 0)
	base := make([]int, g.N())
	for i := range base {
		base[i] = i
	}
	ref := mergeAll(m, base)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		order := make([]int, len(base))
		copy(order, base)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		got := mergeAll(m, order)
		if !got.Equal(ref) {
			t.Fatalf("trial %d: merge order changed the result\nref: %v %v\ngot: %v %v",
				trial, ref, ref.Labels(), got, got.Labels())
		}
	}
}

func TestLeafBlockEqualsLeafMerge(t *testing.T) {
	g := geom.NewSquareGrid(6, 6)
	m := field.Threshold(field.RandomBlobs(3, g.Terrain, 0.9, 1.8, rand.New(rand.NewSource(17))), g, 0.5, 0)
	// Whole grid as one block vs merging all leaves.
	block := LeafBlock(m, 0, 0, 6, 6)
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	merged := mergeAll(m, order)
	if !block.Equal(merged) {
		t.Errorf("LeafBlock != merged leaves:\nblock: %v %v\nmerged: %v %v",
			block, block.Labels(), merged, merged.Labels())
	}
	// Sub-block vs merge of that sub-block's leaves.
	sub := LeafBlock(m, 2, 2, 3, 3)
	acc := Leaf(m, geom.Coord{Col: 2, Row: 2})
	for r := 2; r < 5; r++ {
		for c := 2; c < 5; c++ {
			if r == 2 && c == 2 {
				continue
			}
			acc.Merge(Leaf(m, geom.Coord{Col: c, Row: r}))
		}
	}
	if !sub.Equal(acc) {
		t.Error("sub-block summary differs from merged sub-block leaves")
	}
}

func TestQuadTreeMergeCompression(t *testing.T) {
	// One solid 8x8 region: after the final merge, the region closes and its
	// boundary list is dropped, so the root summary is small.
	g := geom.NewSquareGrid(8, 8)
	solid := field.Threshold(field.Constant{Value: 1}, g, 0.5, 0)
	full := LeafBlock(solid, 0, 0, 8, 8)
	if full.Count() != 1 {
		t.Fatalf("count = %d", full.Count())
	}
	r := full.Regions()[0]
	if !r.Closed || r.Border != nil {
		t.Error("complete region should be closed with no boundary data")
	}
	if full.Size() != 2+3 {
		t.Errorf("closed-region summary size = %d, want 5", full.Size())
	}
	// A half summary keeps only the seam-facing boundary: 8 cells, not 32.
	half := LeafBlock(solid, 0, 0, 4, 8)
	if half.Count() != 1 {
		t.Fatalf("half count = %d", half.Count())
	}
	hb := half.Regions()[0].Border
	if len(hb) != 8 {
		t.Errorf("half summary keeps %d border cells, want 8 (east seam only)", len(hb))
	}
	for _, c := range hb {
		if c.Col != 3 {
			t.Errorf("border cell %v not on the east seam", c)
		}
	}
}

func TestMergeBBoxAndLabels(t *testing.T) {
	g := geom.NewSquareGrid(4, 4)
	m := field.Parse(g,
		"##..",
		"....",
		"....",
		"..##",
	)
	s := LeafBlock(m, 0, 0, 4, 4)
	if s.Count() != 2 {
		t.Fatalf("count = %d", s.Count())
	}
	labels := s.Labels()
	if labels[0] != 0 || labels[1] != 14 {
		t.Errorf("labels = %v", labels)
	}
	r0 := s.Regions()[0]
	if r0.Box != (BBox{MinCol: 0, MinRow: 0, MaxCol: 1, MaxRow: 0}) {
		t.Errorf("region 0 box = %+v", r0.Box)
	}
	r1 := s.Regions()[1]
	if r1.Box != (BBox{MinCol: 2, MinRow: 3, MaxCol: 3, MaxRow: 3}) {
		t.Errorf("region 1 box = %+v", r1.Box)
	}
}

func TestMergeOverlapPanics(t *testing.T) {
	g := geom.NewSquareGrid(2, 2)
	m := field.Parse(g, "##", "##")
	a := Leaf(m, geom.Coord{Col: 0, Row: 0})
	b := Leaf(m, geom.Coord{Col: 0, Row: 0})
	defer func() {
		if recover() == nil {
			t.Error("overlapping merge should panic")
		}
	}()
	a.Merge(b)
}

func TestMergeDifferentGridsPanics(t *testing.T) {
	g1 := geom.NewSquareGrid(2, 2)
	g2 := geom.NewSquareGrid(2, 2)
	m1 := field.Parse(g1, "##", "##")
	m2 := field.Parse(g2, "##", "##")
	a := Leaf(m1, geom.Coord{Col: 0, Row: 0})
	b := Leaf(m2, geom.Coord{Col: 1, Row: 0})
	defer func() {
		if recover() == nil {
			t.Error("cross-grid merge should panic")
		}
	}()
	a.Merge(b)
}

func TestSummarySizeFormula(t *testing.T) {
	g := geom.NewSquareGrid(4, 4)
	m := field.Parse(g, "#...", "....", "....", "...#")
	s := LeafBlock(m, 0, 0, 4, 4)
	// Two closed single-cell regions... wait: single feature cells on a fully
	// covered grid are closed. Size = 2 + 3*2 + 0.
	if s.Size() != 8 {
		t.Errorf("size = %d, want 8", s.Size())
	}
	empty := LeafBlock(m, 1, 1, 2, 2)
	if empty.Size() != 2 {
		t.Errorf("empty summary size = %d, want 2", empty.Size())
	}
}

func TestBBoxUnion(t *testing.T) {
	a := BBox{MinCol: 1, MinRow: 2, MaxCol: 3, MaxRow: 4}
	b := BBox{MinCol: 0, MinRow: 3, MaxCol: 2, MaxRow: 6}
	got := a.Union(b)
	want := BBox{MinCol: 0, MinRow: 2, MaxCol: 3, MaxRow: 6}
	if got != want {
		t.Errorf("Union = %+v, want %+v", got, want)
	}
}

// Property: for random maps, the pairwise merge of two disjoint half
// summaries agrees with labeling the union directly.
func TestHalfMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		g := geom.NewSquareGrid(8, 8)
		bits := make([]bool, g.N())
		for i := range bits {
			bits[i] = rng.Intn(3) == 0
		}
		m := field.FromBits(g, bits)
		left := LeafBlock(m, 0, 0, 4, 8)
		right := LeafBlock(m, 4, 0, 4, 8)
		left.Merge(right)
		whole := LeafBlock(m, 0, 0, 8, 8)
		if !left.Equal(whole) {
			t.Fatalf("trial %d: half merge disagrees with direct labeling", trial)
		}
		if left.Count() != Label(m).Count {
			t.Fatalf("trial %d: count %d != truth %d", trial, left.Count(), Label(m).Count)
		}
	}
}

// Merging the four quadrants of a block, in each of the 24 arrival
// orders, leaves one coverage rectangle and the block's own summary.
func TestMergeCoalescesQuadrants(t *testing.T) {
	g := geom.NewSquareGrid(8, 8)
	m := field.Threshold(field.RandomBlobs(3, g.Terrain, 0.9, 1.8, rand.New(rand.NewSource(29))), g, 0.5, 0)
	want := LeafBlock(m, 0, 0, 8, 8)
	corners := [4][2]int{{0, 0}, {4, 0}, {0, 4}, {4, 4}}
	orders := 0
	for p := 0; p < 256; p++ {
		order := []int{p & 3, p >> 2 & 3, p >> 4 & 3, p >> 6 & 3}
		if 1<<order[0]|1<<order[1]|1<<order[2]|1<<order[3] != 15 {
			continue // not a permutation
		}
		orders++
		acc := LeafBlock(m, corners[order[0]][0], corners[order[0]][1], 4, 4)
		for _, q := range order[1:] {
			acc.Merge(LeafBlock(m, corners[q][0], corners[q][1], 4, 4))
		}
		if acc.CoveredRects() != 1 || !acc.Equal(want) {
			t.Errorf("order %v: %d rects, equal to the block: %v", order, acc.CoveredRects(), acc.Equal(want))
		}
	}
	if orders != 24 {
		t.Fatalf("checked %d orders, want 24", orders)
	}
}

// A quad-tree merged bottom-up with every block's children arriving in
// random order never holds more than two coverage rectangles (three of
// four quadrants), and each finished block is one.
func TestQuadTreeCoverageStaysSmall(t *testing.T) {
	g := geom.NewSquareGrid(16, 16)
	m := field.Threshold(field.RandomBlobs(4, g.Terrain, 1.5, 3, rand.New(rand.NewSource(31))), g, 0.5, 0)
	rng := rand.New(rand.NewSource(37))
	var build func(col, row, side int) *Summary
	build = func(col, row, side int) *Summary {
		if side == 1 {
			return Leaf(m, geom.Coord{Col: col, Row: row})
		}
		h := side / 2
		kids := []*Summary{build(col, row, h), build(col+h, row, h), build(col, row+h, h), build(col+h, row+h, h)}
		rng.Shuffle(len(kids), func(i, j int) { kids[i], kids[j] = kids[j], kids[i] })
		acc := kids[0]
		for _, k := range kids[1:] {
			acc.Merge(k)
			if acc.CoveredRects() > 2 {
				t.Fatalf("block (%d,%d) side %d holds %d rects mid-merge", col, row, side, acc.CoveredRects())
			}
		}
		if acc.CoveredRects() != 1 {
			t.Fatalf("finished block (%d,%d) side %d holds %d rects", col, row, side, acc.CoveredRects())
		}
		return acc
	}
	if root := build(0, 0, 16); !root.Equal(LeafBlock(m, 0, 0, 16, 16)) {
		t.Error("quad-tree merge differs from labeling the whole grid")
	}
}
