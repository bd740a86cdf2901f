package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"wsnva/internal/deploy"
	"wsnva/internal/geom"
)

// floodSink keeps BenchmarkShardFlood's results alive.
var floodSink *Result

// BenchmarkShardFlood times Run on bench/'s flood-scale mission — a
// side-32 grid at density 16 (16,384 nodes), 2 concurrent floods — at 1
// shard (the single-kernel oracle) and at 2 shards on 2 workers, so the
// shard layer's ns/op and B/op reproduce without the bench/ harness.
// The deployment is built once, outside the timed loop.
func BenchmarkShardFlood(b *testing.B) {
	const side, density = 32, 16
	grid := geom.NewSquareGrid(side, float64(side)*10)
	nw, _, err := deploy.Generate(side*side*density, grid, grid.CellSide()*1.2,
		deploy.UniformRandom{}, rand.New(rand.NewSource(1)), 100)
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			cfg := Config{Floods: 2, Shards: shards, Workers: shards}
			for i := 0; i < b.N; i++ {
				if floodSink, err = Run(nw, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
