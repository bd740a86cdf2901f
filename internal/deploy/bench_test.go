package deploy

import (
	"fmt"
	"math/rand"
	"testing"

	"wsnva/internal/geom"
	"wsnva/internal/parallel"
)

// benchLadder runs from paper-stack's 640-node networks (side 8, density
// 10) through the 2,048-node floods of serve-cold (side 16, density 8) to
// flood-scale's 16,384-node deployment (side 32, density 16), all at the
// paper's range of 1.2 cell sides.
var benchLadder = []struct{ n, side int }{{640, 8}, {1024, 11}, {2048, 16}, {4096, 22}, {8192, 32}, {16384, 32}}

// BenchmarkBuildCSR times the CSR build alone, with no pool ("seq") and
// on a GOMAXPROCS-wide pool like the package's shared one ("pool"), over
// benchLadder. Each placement is drawn once, outside the timed loop. The
// pool is made inside each case, so -cpu 1,2 sizes it to each GOMAXPROCS
// in turn.
func BenchmarkBuildCSR(b *testing.B) {
	for _, c := range benchLadder {
		g := geom.NewSquareGrid(c.side, float64(c.side)*10)
		nw := NewWithPool(c.n, g.Terrain, g.CellSide()*1.2, UniformRandom{}, rand.New(rand.NewSource(1)), nil)
		for _, mode := range []string{"seq", "pool"} {
			b.Run(fmt.Sprintf("n=%d/%s", c.n, mode), func(b *testing.B) {
				var pool *parallel.Pool
				if mode == "pool" {
					pool = parallel.New(0)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					nw.buildCSR(pool)
				}
			})
		}
	}
}

// BenchmarkValidate times Generate's acceptance test ("accept":
// CellsConnected and AdjacentCellsLinked on one cell CSR) on a warmed
// Scratch over benchLadder, then Scratch.Connected, which Generate no
// longer runs, as its own case ("connected"). Each deployment is the
// first one Generate accepts, so every predicate runs to its answer
// rather than stopping at an earlier failure.
func BenchmarkValidate(b *testing.B) {
	for _, c := range benchLadder {
		g := geom.NewSquareGrid(c.side, float64(c.side)*10)
		nw, _, err := Generate(c.n, g, g.CellSide()*1.2, UniformRandom{}, rand.New(rand.NewSource(1)), 100)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range []struct {
			name string
			ok   func(s *Scratch) bool
		}{
			{"accept", func(s *Scratch) bool { return s.accepts(nw, g) }},
			{"connected", func(s *Scratch) bool { return s.Connected(nw) }},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", c.n, p.name), func(b *testing.B) {
				s := NewScratch()
				p.ok(s)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !p.ok(s) {
						b.Fatal("accepted deployment failed validation")
					}
				}
			})
		}
	}
}
