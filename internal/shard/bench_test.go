package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"wsnva/internal/churn"
	"wsnva/internal/deploy"
	"wsnva/internal/fault"
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
// at 2 shards. The lossless cases carry their bare names; the same cases
// then run under E22's hazards (a Bernoulli 0.15 channel, the
// Gilbert–Elliott burst channel, crashes plus battery depletion) and
// E24's (Poisson churn, and churn with loss and crashes), named
// <hazard>/<case>. The deployment is built once, outside the timed loop.
// Each case also reports ns/delivery, its time per op over the run's
// Delivered count, the layer's cost per delivery.
func BenchmarkShardFlood(b *testing.B) {
	const side, density = 32, 16
	grid := geom.NewSquareGrid(side, float64(side)*10)
	nw, _, err := deploy.Generate(side*side*density, grid, grid.CellSide()*1.2,
		deploy.UniformRandom{}, rand.New(rand.NewSource(1)), 100)
	if err != nil {
		b.Fatal(err)
	}
	n := nw.N()
	sched := churn.Poisson(n, float64(n)/100, 80, 7)
	for _, h := range []struct {
		prefix string
		cfg    Config
	}{
		{"", Config{}},
		{"bernoulli/", Config{Loss: 0.15, Seed: 7}},
		{"burst/", Config{Burst: fault.DefaultBurst(), Seed: 7}},
		{"crash+deplete/", Config{Crashes: fault.MustRandom(n, 0.05, 50, 7), Capacity: 400, Deplete: true}},
		{"poisson/", Config{Churn: sched}},
		{"churn+loss+crash/", Config{Churn: sched, Loss: 0.1, Seed: 7, Crashes: fault.MustRandom(n, 0.03, 50, 7)}},
	} {
		for _, c := range benchCases {
			b.Run(h.prefix+c.name, func(b *testing.B) {
				b.ReportAllocs()
				cfg := h.cfg
				cfg.Floods, cfg.Shards, cfg.Workers = 2, c.shards, c.shards
				for i := 0; i < b.N; i++ {
					if floodSink, err = runFloods(nw, cfg, c.exec); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(floodSink.Delivered), "ns/delivery")
			})
		}
	}
}

// labelSink keeps BenchmarkShardLabel's results alive.
var labelSink *LabelResult

// BenchmarkShardLabel times RunLabeling on serve-cold's labeling shapes —
// a four-blob field thresholded at 0.5 on grids of side 16, 32 and 64 —
// on benchCases' engine configurations, with the single-kernel oracle as
// the baseline case. The fields are built once, outside the timed loop.
// The per-side cases run in ascending size; mixed/shards=1 labels the
// side-64, side-16 and side-32 maps in turn per op on the 1-shard engine,
// so one pooled merge scratch serves every size, as it does under
// serve-cold's mix.
func BenchmarkShardLabel(b *testing.B) {
	sides := []int{16, 32, 64}
	maps := make(map[int]*field.BinaryMap, len(sides))
	for _, side := range sides {
		grid := geom.NewSquareGrid(side, float64(side)*10)
		w := grid.Terrain.Width()
		maps[side] = field.Threshold(field.RandomBlobs(4, grid.Terrain, w/10, w/6, rand.New(rand.NewSource(1))), grid, 0.5, 0)
	}
	for _, side := range sides {
		for _, c := range benchCases {
			b.Run(fmt.Sprintf("side=%d/%s", side, c.name), func(b *testing.B) {
				b.ReportAllocs()
				cfg := Config{Shards: c.shards, Workers: c.shards}
				for i := 0; i < b.N; i++ {
					var err error
					if labelSink, err = runLabeling(maps[side], cfg, c.exec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	b.Run("mixed/shards=1", func(b *testing.B) {
		b.ReportAllocs()
		cfg := Config{Shards: 1, Workers: 1}
		for i := 0; i < b.N; i++ {
			for _, side := range []int{64, 16, 32} {
				var err error
				if labelSink, err = runLabeling(maps[side], cfg, execute); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
