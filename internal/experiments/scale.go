package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"wsnva/internal/deploy"
	"wsnva/internal/fault"
	"wsnva/internal/geom"
	"wsnva/internal/parallel"
	"wsnva/internal/shard"
	"wsnva/internal/stats"
)

// e21cfg is one execution strategy in the E21 sweep.
type e21cfg struct{ shards, workers int }

// E21ShardScaling runs the sharded parallel kernel (internal/shard) on the
// multi-source dissemination workload across nodes × (shards, workers).
// The match column witnesses that every configuration of a grid computes
// the checksum of its one-shard run, the (1,1) row: the shard count never
// changes the answer. Its wall time and allocations are timed by
// BenchmarkShardFlood in internal/shard, not here.
func E21ShardScaling(o Options) *stats.Table {
	tab := stats.NewTable("E21: sharded kernel scaling — multi-source dissemination, conservative windows (lookahead = min radio delay)",
		"nodes", "floods", "shards", "workers", "match", "checksum")

	grids := []int{2000, 8000}
	floods := 16
	configs := []e21cfg{{1, 1}, {2, 2}, {4, 2}, {4, 4}, {8, 4}}
	if o.Quick {
		grids = []int{600}
		floods = 8
		configs = []e21cfg{{1, 1}, {4, 2}}
	}
	shardLadder(o, tab, grids, floods, configs, func(int) []scenario {
		return []scenario{{floods, shard.Config{}}}
	}, func(*shard.Result) []any { return nil })
	return tab
}

// E22HazardScaling is E21's sweep with the formerly lifted restrictions
// armed: the same dissemination workload under a Bernoulli channel, a
// Gilbert–Elliott bursty channel, and a combined crash-schedule plus
// battery-depletion scenario, each across the (shards, workers) ladder.
// The match column witnesses the tentpole claim — counter-keyed loss
// draws and instant-granularity deaths make every shard count compute
// the one-shard run's exact result.
func E22HazardScaling(o Options) *stats.Table {
	tab := stats.NewTable("E22: sharded kernel scaling under hazards — lossy channels, mid-run crashes, battery depletion",
		"nodes", "hazard", "shards", "workers", "drops", "deaths", "match", "checksum")

	grids := []int{2000, 8000}
	floods := 16
	configs := []e21cfg{{1, 1}, {2, 2}, {4, 4}, {8, 4}}
	if o.Quick {
		grids = []int{600}
		floods = 8
		configs = []e21cfg{{1, 1}, {4, 2}}
	}
	shardLadder(o, tab, grids, floods, configs, func(n int) []scenario {
		return []scenario{
			{"bernoulli 0.15", shard.Config{Loss: 0.15, Seed: 7}},
			{"burst GE", shard.Config{Burst: fault.DefaultBurst(), Seed: 7}},
			{"crash+deplete", shard.Config{
				Crashes:  fault.MustRandom(n, 0.05, 50, 7),
				Capacity: 400,
				Deplete:  true,
			}},
		}
	}, func(res *shard.Result) []any { return []any{res.Dropped, res.Deaths} })
	return tab
}

// scenario is one row group of a shard ladder: the label printed in the
// table's second column and the hazards armed on every configuration.
type scenario struct {
	label any
	cfg   shard.Config
}

// shardLadder runs each grid's scenarios on its e21net deployment across
// configs, one sweep task per (grid, scenario). A row holds the node
// count, the scenario label, shards and workers, then cols' cells, then
// match — whether the row's checksum equals the scenario's first
// configuration's — and the checksum.
func shardLadder(o Options, tab *stats.Table, grids []int, floods int, configs []e21cfg,
	scenarios func(n int) []scenario, cols func(*shard.Result) []any) {
	type task struct {
		nw *deploy.Network
		sc scenario
	}
	var tasks []task
	for _, nw := range parallel.Map(o.Pool, len(grids), func(i int) *deploy.Network { return e21net(grids[i]) }) {
		for _, sc := range scenarios(nw.N()) {
			tasks = append(tasks, task{nw, sc})
		}
	}
	sweep(o, tab, len(tasks), func(i int) rows {
		t := tasks[i]
		var out rows
		var first uint64
		for j, c := range configs {
			cfg := t.sc.cfg
			cfg.Shards, cfg.Workers = c.shards, c.workers
			cfg.Floods, cfg.PktSize = floods, 2
			res, err := shard.Run(t.nw, cfg)
			if err != nil {
				panic(fmt.Sprintf("experiments: %s n=%d %v shards=%d: %v", tab.Title, t.nw.N(), t.sc.label, c.shards, err))
			}
			sum := res.Checksum()
			if j == 0 {
				first = sum
			}
			row := append([]any{t.nw.N(), t.sc.label, c.shards, c.workers}, cols(res)...)
			out = append(out, append(row, sum == first, fmt.Sprintf("%016x", sum)))
		}
		return out
	})
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
