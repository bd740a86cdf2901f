package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"wsnva/internal/deploy"
	"wsnva/internal/field"
	"wsnva/internal/geom"
)

// benchCases are the layer benchmarks' cases: the oracle baseline, then
// the engine at 1, 2 and 4 shards, each on as many workers as shards.
var benchCases = []struct {
	name   string
	exec   executor
	shards int
}{{"oracle", oracleExecute, 1}, {"shards=1", execute, 1}, {"shards=2", execute, 2}, {"shards=4", execute, 4}}

// floodSink keeps BenchmarkShardFlood's results alive.
var floodSink *Result

// BenchmarkShardFlood times Run on bench/'s flood-scale mission — a
// side-32 grid at density 16 (16,384 nodes), 2 concurrent floods — on the
// engine at 1 shard, 2 shards on 2 workers and 4 shards on 4 workers,
// with the single-kernel oracle as the baseline case, so the shard
// layer's ns/op and allocs/op reproduce without the bench/ harness. The
// 4-shard case crosses shards on about 3.5% of the edges, against 1.5%
// at 2 shards. The deployment is built once, outside the timed loop.
func BenchmarkShardFlood(b *testing.B) {
	const side, density = 32, 16
	grid := geom.NewSquareGrid(side, float64(side)*10)
	nw, _, err := deploy.Generate(side*side*density, grid, grid.CellSide()*1.2,
		deploy.UniformRandom{}, rand.New(rand.NewSource(1)), 100)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range benchCases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := Config{Floods: 2, Shards: c.shards, Workers: c.shards}
			for i := 0; i < b.N; i++ {
				if floodSink, err = runFloods(nw, cfg, c.exec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// labelSink keeps BenchmarkShardLabel's results alive.
var labelSink *LabelResult

// BenchmarkShardLabel times RunLabeling on serve-cold's labeling shapes —
// a four-blob field thresholded at 0.5 on grids of side 16, 32 and 64 —
// on benchCases' engine configurations, with the single-kernel oracle as
// the baseline case. The field is built once per
// side, outside the timed loop.
func BenchmarkShardLabel(b *testing.B) {
	for _, side := range []int{16, 32, 64} {
		grid := geom.NewSquareGrid(side, float64(side)*10)
		w := grid.Terrain.Width()
		m := field.Threshold(field.RandomBlobs(4, grid.Terrain, w/10, w/6, rand.New(rand.NewSource(1))), grid, 0.5, 0)
		for _, c := range benchCases {
			b.Run(fmt.Sprintf("side=%d/%s", side, c.name), func(b *testing.B) {
				b.ReportAllocs()
				cfg := LabelConfig{Config: Config{Shards: c.shards, Workers: c.shards}}
				for i := 0; i < b.N; i++ {
					var err error
					if labelSink, err = runLabeling(m, cfg, c.exec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
