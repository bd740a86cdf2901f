package experiments

import (
	"fmt"
	"math/rand"

	"wsnva/internal/churn"
	"wsnva/internal/emul"
	"wsnva/internal/fault"
	"wsnva/internal/field"
	"wsnva/internal/shard"
	"wsnva/internal/sim"
	"wsnva/internal/stats"
)

// e23Horizon is the churn window for the E23 sweep: long enough for the
// slowest Poisson rate to land a handful of disturbance batches, short
// enough that the quick table stays fast.
const e23Horizon = sim.Time(400)

// churnStack builds the standard physical stack for a churn mission —
// side×side grid, perCell nodes per cell, fixed seeds — and returns the
// emulation machine, a blob workload on the machine's own grid (RunChurn
// insists map and hierarchy share the grid object), and the deployment
// size.
func churnStack(side, perCell int, seed int64) (*emul.Machine, *field.BinaryMap, int) {
	nw, g, s := physSetup(side, perCell, 12.5, seed)
	pm, _ := assemble(s, false)
	fmap := field.Threshold(field.RandomBlobs(2, g.Terrain,
		g.Terrain.Width()/6, g.Terrain.Width()/4, rand.New(rand.NewSource(seed+10))), g, 0.5, 0)
	return pm, fmap, nw.N()
}

// E23ChurnRepair sweeps the Poisson churn rate against the incremental
// repair engine (emul.RunChurn): each row is one mission on a fresh
// stack, reporting how many disturbance batches landed, how many radios
// actually flipped, what the repair cost (routing-table rebroadcasts and
// touched cells), and the worst re-convergence latency. The claims the
// table witnesses: repair traffic grows with the number of flips — not
// with the network size, which is constant down a column — the recovery
// predicate holds at every rate, and the final labeling round still
// covers the whole grid. Everything is a pure function of the seeds, so
// the quick table is pinned by a golden CSV.
func E23ChurnRepair(o Options) *stats.Table {
	tab := stats.NewTable("E23: incremental repair cost and re-convergence latency vs churn rate (Poisson sleep/wake)",
		"side", "nodes", "rate", "batches", "flips", "cells", "repair msgs", "msgs/flip", "max latency", "recovered", "rounds", "final cov")

	sidesList := []int{4, 8}
	perCell := 5
	rates := []float64{0, 0.02, 0.05, 0.1, 0.2}
	if o.Quick {
		sidesList = []int{4}
		rates = []float64{0, 0.05, 0.2}
	}

	type trial struct {
		side int
		rate float64
	}
	var trials []trial
	for _, s := range sidesList {
		for _, r := range rates {
			trials = append(trials, trial{s, r})
		}
	}
	sweep(o, tab, len(trials), func(i int) rows {
		tr := trials[i]
		pm, fmap, n := churnStack(tr.side, perCell, 11)
		var sched churn.Schedule
		if tr.rate > 0 {
			// Close the mission by waking whatever the Poisson process left
			// asleep, so the final labeling round measures the repaired
			// network rather than the residual sleep set.
			sched, _ = churn.Poisson(n, tr.rate, e23Horizon, 23).Settle(e23Horizon + 1)
		}
		out, err := pm.RunChurn(emul.ChurnConfig{
			Schedule:   sched,
			Map:        fmap,
			RoundEvery: 4,
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: E23 side=%d rate=%v: %v", tr.side, tr.rate, err))
		}
		flips, cells := 0, 0
		for _, d := range out.Disturbances {
			flips += d.Flipped
			cells += d.Cells
		}
		perFlip := 0.0
		if flips > 0 {
			perFlip = float64(out.RepairMsgs) / float64(flips)
		}
		return rows{{tr.side, n, tr.rate, len(out.Disturbances), flips, cells,
			out.RepairMsgs, perFlip, int64(out.MaxLatency),
			out.AllRecovered, out.Rounds, out.FinalCoverage}}
	})
	return tab
}

// E24ChurnShardScaling extends the E22 hazard ladder with duty-cycle
// churn: the dissemination workload under a Poisson sleep/wake schedule,
// alone and combined with a lossy channel and mid-run crashes, across
// the (shards, workers) ladder. Churn transitions are cross-shard events
// — each lands on its node's owner shard inside the conservative window
// protocol — and the match column witnesses that every shard count
// reproduces the one-shard run's checksum exactly, suspends and
// resumes included.
func E24ChurnShardScaling(o Options) *stats.Table {
	tab := stats.NewTable("E24: sharded kernel scaling under churn — Poisson sleep/wake as cross-shard events",
		"nodes", "hazard", "shards", "workers", "suspends", "resumes", "drops", "match", "checksum")

	grids := []int{2000, 8000}
	floods := 16
	configs := []e21cfg{{1, 1}, {2, 2}, {4, 4}, {8, 4}}
	if o.Quick {
		grids = []int{600}
		floods = 8
		configs = []e21cfg{{1, 1}, {4, 2}}
	}
	shardLadder(o, tab, grids, floods, configs, func(n int) []scenario {
		// The Poisson rate scales with the network (n/100 expected
		// transitions per time unit over an 80-tick window), so the
		// disturbance is a constant fraction of the deployment at every
		// grid size — churn that stayed at a fixed absolute rate would
		// vanish relative to an 8000-node run.
		sched := churn.Poisson(n, float64(n)/100, 80, 7)
		return []scenario{
			{"poisson n/100", shard.Config{Churn: sched}},
			{"churn+loss+crash", shard.Config{
				Churn:   sched,
				Loss:    0.1,
				Seed:    7,
				Crashes: fault.MustRandom(n, 0.03, 50, 7),
			}},
		}
	}, func(res *shard.Result) []any { return []any{res.Suspends, res.Resumes, res.Dropped} })
	return tab
}
