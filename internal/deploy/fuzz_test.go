package deploy

import (
	"encoding/binary"
	"slices"
	"testing"

	"wsnva/internal/geom"
)

// FuzzCSRNeighbors decodes arbitrary bytes into a point set and a range
// and holds the CSR adjacency to its three invariants against a brute-
// force O(n²) reference: every row strictly increasing, the relation
// symmetric, and membership exactly "distance ≤ range, excluding self".
// The kept bucket order must list every ID once, with bucket keys (side
// range, row-major) non-decreasing and IDs ascending within a bucket.
// On a fixed 4×4 grid over the terrain, the per-cell CellsConnected must
// agree with the legacy map BFS, and Generate's acceptance test (the cell
// predicates without Connected) must accept only point sets that brute
// force finds connected.
func FuzzCSRNeighbors(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	// An 8×8 lattice at spacing 8 and range ~10, which the 4×4 grid
	// accepts: each cell holds a square of four beside its neighbors'.
	lattice := binary.LittleEndian.AppendUint16(nil, 39935)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			lattice = binary.LittleEndian.AppendUint16(lattice, uint16((4+8*x)*1024))
			lattice = binary.LittleEndian.AppendUint16(lattice, uint16((4+8*y)*1024))
		}
	}
	f.Add(lattice)

	f.Fuzz(func(t *testing.T, data []byte) {
		const terrainSide = 64.0
		terrain := geom.Rect{MinX: 0, MinY: 0, MaxX: terrainSide, MaxY: terrainSide}
		// First two bytes pick the transmission range in (0, ~16].
		txRange := 0.25 + float64(uint16(len(data))*7%997)/997*16
		if len(data) >= 2 {
			txRange = 0.25 + float64(binary.LittleEndian.Uint16(data[:2]))/65535*16
			data = data[2:]
		}
		// Each subsequent 4-byte chunk is one point (2 bytes per axis),
		// capped so the brute-force check stays fast.
		n := len(data) / 4
		if n > 192 {
			n = 192
		}
		pts := make([]geom.Point, n)
		for i := 0; i < n; i++ {
			u := binary.LittleEndian.Uint16(data[4*i:])
			v := binary.LittleEndian.Uint16(data[4*i+2:])
			pts[i] = geom.Point{
				X: float64(u) / 65536 * terrainSide,
				Y: float64(v) / 65536 * terrainSide,
			}
		}
		nw := FromPoints(pts, terrain, txRange)

		off, adj := nw.CSRView()
		if len(off) != n+1 || int(off[0]) != 0 || int(off[n]) != len(adj) {
			t.Fatalf("malformed CSR frame: n=%d off=%v len(adj)=%d", n, off, len(adj))
		}
		r2 := txRange * txRange
		for i := 0; i < n; i++ {
			row := adj[off[i]:off[i+1]]
			for k := 1; k < len(row); k++ {
				if row[k-1] >= row[k] {
					t.Fatalf("node %d row not strictly increasing: %v", i, row)
				}
			}
			// Range-correctness and symmetry against brute force.
			for j := 0; j < n; j++ {
				want := i != j && pts[i].Dist2(pts[j]) <= r2
				_, got := slices.BinarySearch(row, int32(j))
				if got != want {
					t.Fatalf("edge (%d,%d): CSR=%v, brute-force=%v (dist2=%v r2=%v)",
						i, j, got, want, pts[i].Dist2(pts[j]), r2)
				}
				if _, back := slices.BinarySearch(adj[off[j]:off[j+1]], int32(i)); got && !back {
					t.Fatalf("edge (%d,%d) present but (%d,%d) missing", i, j, j, i)
				}
			}
		}

		order := nw.BucketOrder()
		cols := int(terrainSide/txRange) + 1
		key := func(id int32) int {
			bx := min(int(pts[id].X/txRange), cols-1)
			by := min(int(pts[id].Y/txRange), cols-1)
			return by*cols + bx
		}
		sorted := slices.Clone(order)
		slices.Sort(sorted)
		if !slices.Equal(sorted, ids(n)) {
			t.Fatalf("bucket order %v is not a permutation of %d IDs", order, n)
		}
		for p := 1; p < len(order); p++ {
			a, b := order[p-1], order[p]
			if key(a) > key(b) || key(a) == key(b) && a > b {
				t.Fatalf("bucket order: node %d (bucket %d) before node %d (bucket %d)", a, key(a), b, key(b))
			}
		}

		g := geom.NewSquareGrid(4, terrainSide)
		s := NewScratch()
		cells := s.CellsConnected(nw, g)
		if want := legacyCellsConnected(nw, g); cells != want {
			t.Fatalf("CellsConnected=%v, legacy=%v", cells, want)
		}
		accepted := s.accepts(nw, g)
		if accepted != (cells && s.AdjacentCellsLinked(nw, g)) {
			t.Fatalf("accepts=%v, CellsConnected=%v, AdjacentCellsLinked=%v", accepted, cells, s.AdjacentCellsLinked(nw, g))
		}
		if accepted && !bruteConnected(pts, r2) {
			t.Fatalf("accepted on the 4×4 grid, but brute force finds %d points at range %v disconnected", n, txRange)
		}
	})
}

// bruteConnected reports whether the disk graph on pts at squared range
// r2 is connected, by an O(n²) breadth-first search.
func bruteConnected(pts []geom.Point, r2 float64) bool {
	if len(pts) == 0 {
		return true
	}
	seen := make([]bool, len(pts))
	seen[0] = true
	queue := []int{0}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for j := range pts {
			if !seen[j] && pts[i].Dist2(pts[j]) <= r2 {
				seen[j] = true
				queue = append(queue, j)
			}
		}
	}
	return !slices.Contains(seen, false)
}

// ids returns 0, 1, …, n−1.
func ids(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}
