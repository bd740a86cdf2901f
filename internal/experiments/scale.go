package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"wsnva/internal/deploy"
	"wsnva/internal/fault"
	"wsnva/internal/geom"
	"wsnva/internal/shard"
	"wsnva/internal/stats"
)

// e21cfg is one execution strategy in the E21 sweep.
type e21cfg struct{ shards, workers int }

// E21ShardScaling measures the sharded parallel kernel (internal/shard)
// against its own one-shard run, the (1,1) row: nodes × (shards,
// workers) versus wall-clock and allocations, on the multi-source
// dissemination workload. The checksum column witnesses that every
// configuration of a grid computed the identical result — the speedup is
// never bought with divergence.
//
// Unlike the other experiments the wall and malloc columns here are
// measurements of this process, not simulation outputs, so the table is
// not byte-deterministic and is excluded from the golden-table tests;
// rows run sequentially (never on the options pool) so the readings
// attribute to one configuration at a time. Shard-level parallelism
// only buys wall time on multi-core hosts — on a single-core container
// the sweep records the bookkeeping overhead instead; EXPERIMENTS.md
// discusses the observed numbers.
func E21ShardScaling(o Options) *stats.Table {
	tab := stats.NewTable("E21: sharded kernel scaling — multi-source dissemination, conservative windows (lookahead = min radio delay)",
		"nodes", "floods", "shards", "workers", "wall ms", "mallocs", "speedup", "checksum")

	grids := []int{2000, 8000}
	floods := 16
	configs := []e21cfg{{1, 1}, {2, 2}, {4, 2}, {4, 4}, {8, 4}}
	if o.Quick {
		grids = []int{600}
		floods = 8
		configs = []e21cfg{{1, 1}, {4, 2}}
	}
	if o.Shards > 0 {
		configs = []e21cfg{{1, 1}, {o.Shards, 0}}
	}

	for _, n := range grids {
		nw := e21net(n)
		var base float64
		for i, c := range configs {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			res, err := shard.Run(nw, shard.Config{
				Shards: c.shards, Workers: c.workers,
				Floods: floods, PktSize: 2,
			})
			wall := time.Since(t0)
			runtime.ReadMemStats(&after)
			if err != nil {
				panic(fmt.Sprintf("experiments: E21 n=%d shards=%d: %v", n, c.shards, err))
			}
			ms := float64(wall.Nanoseconds()) / 1e6
			if i == 0 {
				base = ms
			}
			tab.AddRow(n, floods, c.shards, c.workers, ms,
				int64(after.Mallocs-before.Mallocs),
				stats.Ratio(base, ms),
				fmt.Sprintf("%016x", res.Checksum()))
		}
	}
	return tab
}

// E22HazardScaling is E21's sweep with the formerly lifted restrictions
// armed: the same dissemination workload under a Bernoulli channel, a
// Gilbert–Elliott bursty channel, and a combined crash-schedule plus
// battery-depletion scenario, each across the (shards, workers) ladder.
// The match column witnesses the tentpole claim — counter-keyed loss
// draws and instant-granularity deaths make every shard count compute
// the one-shard run's exact result, so the parallel speedup survives
// hazards.
// Wall and malloc readings are process measurements, as in E21, so this
// table is also excluded from the golden-table tests.
func E22HazardScaling(o Options) *stats.Table {
	tab := stats.NewTable("E22: sharded kernel scaling under hazards — lossy channels, mid-run crashes, battery depletion",
		"nodes", "hazard", "shards", "workers", "wall ms", "drops", "deaths", "speedup", "match", "checksum")

	grids := []int{2000, 8000}
	floods := 16
	configs := []e21cfg{{1, 1}, {2, 2}, {4, 4}, {8, 4}}
	if o.Quick {
		grids = []int{600}
		floods = 8
		configs = []e21cfg{{1, 1}, {4, 2}}
	}
	if o.Shards > 0 {
		configs = []e21cfg{{1, 1}, {o.Shards, 0}}
	}

	for _, n := range grids {
		nw := e21net(n)
		scenarios := []struct {
			name string
			cfg  shard.Config
		}{
			{"bernoulli 0.15", shard.Config{Loss: 0.15, Seed: 7}},
			{"burst GE", shard.Config{Burst: fault.DefaultBurst(), Seed: 7}},
			{"crash+deplete", shard.Config{
				Crashes:  fault.MustRandom(n, 0.05, 50, 7),
				Capacity: 400,
				Deplete:  true,
			}},
		}
		for _, sc := range scenarios {
			var base float64
			var oracle uint64
			for i, c := range configs {
				cfg := sc.cfg
				cfg.Shards, cfg.Workers = c.shards, c.workers
				cfg.Floods, cfg.PktSize = floods, 2
				runtime.GC()
				t0 := time.Now()
				res, err := shard.Run(nw, cfg)
				wall := time.Since(t0)
				if err != nil {
					panic(fmt.Sprintf("experiments: E22 n=%d %s shards=%d: %v", n, sc.name, c.shards, err))
				}
				ms := float64(wall.Nanoseconds()) / 1e6
				if i == 0 {
					base = ms
					oracle = res.Checksum()
				}
				tab.AddRow(n, sc.name, c.shards, c.workers, ms,
					res.Dropped, res.Deaths,
					stats.Ratio(base, ms),
					res.Checksum() == oracle,
					fmt.Sprintf("%016x", res.Checksum()))
			}
		}
	}
	return tab
}

// e21net builds a constant-density deployment (about 12 neighbors per
// node) for the scaling sweep, retrying seeds until the disk graph is
// connected.
func e21net(n int) *deploy.Network {
	side := math.Sqrt(float64(n))
	terrain := geom.Rect{MinX: 0, MinY: 0, MaxX: side, MaxY: side}
	for seed := int64(1); seed <= 40; seed++ {
		nw := deploy.New(n, terrain, 2, deploy.UniformRandom{}, rand.New(rand.NewSource(seed)))
		if nw.Connected() {
			return nw
		}
	}
	panic(fmt.Sprintf("experiments: no connected %d-node deployment in 40 seeds", n))
}
