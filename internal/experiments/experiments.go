// Package experiments implements the reproduction harness: one function per
// experiment, listed in All (E1–E24, E26 and the A-series ablations), each
// returning a printable table. cmd/benchtab prints them all; bench_test.go
// times each as a sub-benchmark of BenchmarkTables; EXPERIMENTS.md records
// the observed outputs against the paper's claims.
//
// The paper (a methodology paper) has no quantitative tables of its own;
// each experiment here reproduces either one of its conceptual figures as
// an executable artifact (E1, E2) or one of its explicit analytical claims
// (E3–E16), or measures an extension (E17 on). Every table is a pure
// function of its seeds: fixed seeds, integer cost units, and no reading
// of the clock or the process, so the quick tables are pinned by one
// golden file.
package experiments

import (
	"fmt"
	"math/rand"

	"wsnva/internal/baseline"
	"wsnva/internal/cost"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/lockstep"
	"wsnva/internal/mapping"
	"wsnva/internal/mission"
	"wsnva/internal/parallel"
	"wsnva/internal/regions"
	"wsnva/internal/runtime"
	"wsnva/internal/sim"
	"wsnva/internal/stats"
	"wsnva/internal/synth"
	"wsnva/internal/taskgraph"
	"wsnva/internal/trace"
	"wsnva/internal/varch"
)

// Options configures a harness run. Quick trims sweep ranges for use inside
// testing.B loops; the full ranges run in cmd/benchtab.
type Options struct {
	Quick bool
	// Pool fans the independent rows and trials of each experiment out
	// across worker goroutines. nil (or a 1-worker pool) runs sequentially.
	// Results are always emitted in submission order, so the output table
	// is byte-identical whatever the worker count — the quick-table golden
	// tests run with and without a pool to pin this.
	Pool *parallel.Pool
	// Trace, if non-nil, receives structured events from every engine the
	// experiment drives (machines, ledgers, banks, media). Nil — the default
	// and what benchtab uses — keeps every run untraced and byte-identical
	// to the pre-observability harness. With a pool attached, events from
	// concurrent sweep tasks interleave in scheduler order; trace one row at
	// a time (or run sequentially) when event order matters.
	Trace *trace.Tracer
}

// Experiment is one entry of the registry: its ID, the paper claim (or
// extension) its table witnesses, and the function that builds the table.
type Experiment struct {
	ID, Claim string
	Run       func(Options) *stats.Table
}

// All is every experiment in print order. cmd/benchtab, the quick-table
// golden test and BenchmarkTables all read this list.
var All = []Experiment{
	{"E1", "Figures 2/3: quad-tree mapping with both design constraints", E1Mapping},
	{"E2", "Section 4.1: O(√N) completion for bounded features, engine agreement", E2Steps},
	{"E3", "Section 2: divide-and-conquer vs centralized trade", E3DCvsCentral},
	{"E4", "Section 2: energy balance and extrapolated lifetime", E4Balance},
	{"E5", "Section 5.1: topology-emulation efficiency claims (i)-(iii)", E5Emulation},
	{"E6", "Section 5.2: closest-to-center leader election", E6Election},
	{"E7", "Section 4.3: loss tolerance, with and without ARQ", E7Loss},
	{"E8", "Sections 2/5: analysis vs emulated measurement", E8Correspondence},
	{"E9", "Section 3.2: collective primitive costs", E9Collectives},
	{"E10", "Section 5.1: incremental churn repair", E10Churn},
	{"E11", "Section 4.1: synchronous step count is Θ(√N)", E11SyncSteps},
	{"E12", "Section 3.2: tree topology for non-uniform deployments", E12TreeTopology},
	{"E13", "Section 5.1: emulation under radio loss + flooding baseline", E13LossyEmulation},
	{"E14", "Section 4.1: event-driven alarm vs periodic labeling", E14AlarmApp},
	{"E15", "Section 2: simulated lifetime to first node death", E15Lifetime},
	{"E16", "Sections 2/5: whole-application correspondence, virtual vs physical runtime", E16WholeApp},
	{"E17", "Extension: labeling under fail-stop crashes with watchdog failover", E17FailureSweep},
	{"E18", "Extension: stop-and-wait ARQ under loss and crashes", E18ReliableDelivery},
	{"E19", "Extension: network lifetime under battery depletion, static vs rotated leaders", E19NetworkLifetime},
	{"E20", "Extension: ARQ under loss accelerates battery depletion", E20DepletionARQ},
	{"E21", "Extension: the sharded kernel computes one checksum at every shard and worker count", E21ShardScaling},
	{"E22", "Extension: sharded kernel parity under lossy channels, crashes and depletion", E22HazardScaling},
	{"E23", "Extension: incremental repair cost and re-convergence latency vs churn rate", E23ChurnRepair},
	{"E24", "Extension: sharded kernel parity under Poisson sleep/wake churn", E24ChurnShardScaling},
	{"E26", "Extension: deployment generation at scale, parallel CSR build equal to sequential", E26DeployGeneration},
	{"A1", "Ablation: mapping strategies", A1MappingAblation},
	{"A2", "Ablation: workload shapes", A2FieldShapes},
	{"A3", "Ablation: cost-model sensitivity", A3CostSensitivity},
}

func sides(o Options, full ...int) []int {
	if o.Quick && len(full) > 2 {
		return full[:2]
	}
	return full
}

// rows is one sweep task's result: zero or more table rows, in the order
// they should appear.
type rows [][]any

// sweep fans body out over [0,n) on the options' pool and appends every
// task's rows to tab in submission (index) order. Each task must be
// self-contained: fresh ledgers, machines, and RNGs per index.
func sweep(o Options, tab *stats.Table, n int, body func(i int) rows) {
	for _, rs := range parallel.Map(o.Pool, n, body) {
		for _, cells := range rs {
			tab.AddRow(cells...)
		}
	}
}

// blobMapFor builds the standard workload: a few Gaussian hot spots
// thresholded over the grid, deterministic per (side, seed).
func blobMapFor(side int, seed int64) *field.BinaryMap {
	g := geom.NewSquareGrid(side, float64(side))
	f := field.RandomBlobs(4, g.Terrain, float64(side)/8, float64(side)/5, rand.New(rand.NewSource(seed)))
	return field.Threshold(f, g, 0.5, 0)
}

// boundedMapFor builds a map whose feature content does not grow with the
// grid: a single fixed-size block — the O(1)-data regime of the paper's
// step-count analysis.
func boundedMapFor(side int) *field.BinaryMap {
	g := geom.NewSquareGrid(side, float64(side))
	m := field.FromBits(g, make([]bool, g.N()))
	for _, c := range []geom.Coord{{Col: 0, Row: 0}, {Col: 1, Row: 0}, {Col: 0, Row: 1}, {Col: 1, Row: 1}} {
		m.Bits[g.Index(c)] = true
	}
	return m
}

// runDES executes one synthesized labeling round on the DES machine,
// optionally observed by tr (nil: untraced).
func runDES(m *field.BinaryMap, tr *trace.Tracer) (*synth.Result, *cost.Ledger) {
	h := varch.MustHierarchy(m.Grid)
	l := cost.NewLedger(cost.NewUniform(), m.Grid.N())
	k := sim.New()
	vm := varch.NewMachine(h, k, l)
	if tr != nil {
		vm.SetTracer(tr)
		l.SetTracer(tr, k.Now)
	}
	res, err := synth.RunOnMachine(vm, m)
	if err != nil {
		panic(fmt.Sprintf("experiments: DES round failed: %v", err))
	}
	return res, l
}

// E1Mapping reproduces Figures 2 and 3: the quad-tree task graph for the
// 4×4 grid and the paper's quadrant-recursive mapping, with both design
// constraints checked. One row per task level plus the exact placements
// the paper quotes (root -> 0; level-1 -> 0, 4, 8, 12).
func E1Mapping(o Options) *stats.Table {
	tree := taskgraph.QuadTree(2, 1)
	grid := geom.NewSquareGrid(4, 4)
	a := mapping.PaperMapping(tree, grid)
	covOK := a.CheckCoverage() == nil
	spatOK := a.CheckSpatialCorrelation() == nil
	tab := stats.NewTable("E1: Fig 2/3 quad-tree mapping onto the 4x4 grid",
		"level", "tasks", "morton cells", "coverage ok", "spatial ok")
	for level := len(tree.Levels) - 1; level >= 0; level-- {
		cells := ""
		for i, id := range tree.Levels[level] {
			if i > 0 {
				cells += ","
			}
			cells += fmt.Sprint(geom.MortonIndex(a.At[id]))
			if i >= 7 {
				cells += ",..."
				break
			}
		}
		tab.AddRow(level, len(tree.Levels[level]), cells, covOK, spatOK)
	}
	return tab
}

// E2Steps reproduces the Section 4.1 complexity claim: completion time of
// the synthesized program versus grid size, for bounded feature content
// (the O(sqrt N)-steps regime) and for a solid field (the perimeter-bound
// regime), cross-checked between the DES machine and the goroutine runtime.
func E2Steps(o Options) *stats.Table {
	tab := stats.NewTable("E2: Fig 4 program execution — completion vs N",
		"side", "N", "levels", "t_bounded", "t_bounded/side", "t_solid", "firings", "engines agree")
	ss := sides(o, 4, 8, 16, 32, 64)
	sweep(o, tab, len(ss), func(i int) rows {
		side := ss[i]
		bounded := boundedMapFor(side)
		resB, _ := runDES(bounded, o.Trace)
		solid := field.Threshold(field.Constant{Value: 1}, geom.NewSquareGrid(side, float64(side)), 0.5, 0)
		resS, _ := runDES(solid, o.Trace)
		agree := "-"
		if side <= 16 {
			h := varch.MustHierarchy(bounded.Grid)
			rt, err := runtime.New(h).Run(bounded, nil, runtime.Config{Seed: 7, Tracer: o.Trace})
			if err != nil {
				panic(err)
			}
			agree = fmt.Sprint(rt.Final.Equal(resB.Final))
		}
		return rows{{side, side * side, geom.Log2(side),
			int64(resB.Completion),
			float64(resB.Completion) / float64(side),
			int64(resS.Completion), resB.RuleFirings, agree}}
	})
	return tab
}

// E3DCvsCentral reproduces the Section 2 design-flow comparison: the
// divide-and-conquer algorithm versus centralized collection, on total
// energy and latency, across grid sizes. The shape to verify: D&C wins
// energy by a factor that grows with N, and wins latency at scale.
func E3DCvsCentral(o Options) *stats.Table {
	tab := stats.NewTable("E3: divide-and-conquer vs centralized collection",
		"side", "dc energy", "central energy", "energy ratio", "dc latency", "central latency", "latency ratio", "winner")
	ss := sides(o, 4, 8, 16, 32)
	sweep(o, tab, len(ss), func(i int) rows {
		side := ss[i]
		m := blobMapFor(side, 101)
		resDC, lDC := runDES(m, o.Trace)
		dcEnergy := float64(lDC.Metrics().Total)
		lBase := cost.NewLedger(cost.NewUniform(), m.Grid.N())
		_, st := baseline.Run(lBase, m, geom.Coord{})
		winner := "central"
		if dcEnergy < float64(st.TotalEnergy) {
			winner = "d&c"
		}
		return rows{{side,
			int64(dcEnergy), int64(st.TotalEnergy),
			stats.Ratio(float64(st.TotalEnergy), dcEnergy),
			int64(resDC.Completion), int64(st.Latency),
			stats.Ratio(float64(st.Latency), float64(resDC.Completion)),
			winner}}
	})
	return tab
}

// E4Balance reproduces the energy-balance metric of Section 2: the hottest
// node's load and the max/mean balance factor for both strategies, plus the
// first-node-death lifetime under a fixed per-node budget.
func E4Balance(o Options) *stats.Table {
	const budget = cost.Energy(1_000_000)
	tab := stats.NewTable("E4: energy balance and lifetime",
		"side", "dc max node", "dc balance", "central max node", "central balance", "dc lifetime", "central lifetime")
	ss := sides(o, 4, 8, 16, 32)
	sweep(o, tab, len(ss), func(i int) rows {
		side := ss[i]
		m := blobMapFor(side, 101)
		_, lDC := runDES(m, o.Trace)
		dcm := lDC.Metrics()
		lBase := cost.NewLedger(cost.NewUniform(), m.Grid.N())
		baseline.Run(lBase, m, geom.Coord{})
		bm := lBase.Metrics()
		return rows{{side,
			int64(dcm.Max), dcm.Balance,
			int64(bm.Max), bm.Balance,
			lDC.Lifetime(budget), lBase.Lifetime(budget)}}
	})
	return tab
}

// E9Collectives reproduces the Section 3.2 requirement that the virtual
// architecture export per-primitive costs: the collective primitives'
// energy and latency per group level under both gather strategies.
func E9Collectives(o Options) *stats.Table {
	side := 16
	if o.Quick {
		side = 8
	}
	g := geom.NewSquareGrid(side, float64(side))
	h := varch.MustHierarchy(g)
	vals := func(c geom.Coord) int64 { return int64(g.Index(c)) }
	tab := stats.NewTable(fmt.Sprintf("E9: collective primitive costs on the %dx%d grid", side, side),
		"primitive", "level", "strategy", "energy", "latency")
	type combo struct {
		level int
		strat varch.Strategy
	}
	var combos []combo
	for level := 1; level <= h.Levels; level++ {
		for _, strat := range []varch.Strategy{varch.Direct, varch.Convergecast} {
			combos = append(combos, combo{level, strat})
		}
	}
	sweep(o, tab, len(combos), func(i int) rows {
		c := combos[i]
		// One ledger per task, Reset between primitives: the collective
		// sweep is exactly the per-round reuse pattern the resettable
		// ledger exists for.
		l := cost.NewLedger(cost.NewUniform(), g.N())
		var out rows
		for _, prim := range []string{"sum", "sort"} {
			l.Reset()
			vm := varch.NewMachine(h, sim.New(), l)
			var lat sim.Time
			switch prim {
			case "sum":
				_, lat = vm.GroupSum(h.Root(), c.level, vals, c.strat)
			case "sort":
				_, lat = vm.GroupSort(h.Root(), c.level, vals, c.strat)
			}
			out = append(out, []any{prim, c.level, c.strat.String(), int64(l.Metrics().Total), int64(lat)})
		}
		return out
	})
	return tab
}

// E7Loss reproduces the Section 4.3 asynchrony/loss discussion: completion
// probability, achieved root coverage, and correctness of completed rounds
// under increasing message loss, on the goroutine runtime.
func E7Loss(o Options) *stats.Table {
	side := 8
	trials := 20
	if o.Quick {
		trials = 5
	}
	m := blobMapFor(side, 55)
	truth := regions.Label(m).Count
	h := varch.MustHierarchy(m.Grid)
	tab := stats.NewTable("E7: labeling under message loss (8x8 grid)",
		"loss", "retries", "trials", "completed", "stalled", "avg coverage", "completed correct")
	type config struct {
		loss    float64
		retries int
	}
	var cfgs []config
	for _, loss := range []float64{0, 0.02, 0.05, 0.1, 0.2, 0.3} {
		for _, retries := range []int{0, 3} {
			if retries > 0 && loss == 0 {
				continue // identical to the loss-free best-effort row
			}
			cfgs = append(cfgs, config{loss, retries})
		}
	}
	// Fan out at trial granularity: every (config, trial) task runs its own
	// goroutine engine with the trial's fixed seed, and the per-config
	// aggregation below folds the results back in trial order.
	type trialResult struct {
		completed, correct bool
		coverage           int
	}
	results := parallel.Map(o.Pool, len(cfgs)*trials, func(t int) trialResult {
		cfg, trial := cfgs[t/trials], t%trials
		res, err := runtime.New(h).Run(m, nil,
			runtime.Config{Loss: cfg.loss, Retries: cfg.retries, Seed: int64(trial*31 + 7), Tracer: o.Trace})
		if err != nil {
			panic(err)
		}
		out := trialResult{coverage: res.RootCoverage}
		if res.Final != nil {
			out.completed = true
			out.correct = res.Final.Count() == truth
		}
		return out
	})
	for ci, cfg := range cfgs {
		completed, correct, coverage := 0, 0, 0
		for _, r := range results[ci*trials : (ci+1)*trials] {
			coverage += r.coverage
			if r.completed {
				completed++
				if r.correct {
					correct++
				}
			}
		}
		tab.AddRow(cfg.loss, cfg.retries, trials, completed, trials-completed,
			float64(coverage)/float64(trials), fmt.Sprintf("%d/%d", correct, completed))
	}
	return tab
}

// E14AlarmApp measures the event-driven application regime Section 4.1
// contrasts with the periodic task graph: the alarm program's cost is
// proportional to the number of events, while the labeling program pays
// Θ(N) every round regardless. The sweep grows a fire across a 16x16 grid
// and reports both programs' energy plus the alarm's detection latency.
func E14AlarmApp(o Options) *stats.Table {
	side := 16
	if o.Quick {
		side = 8
	}
	g := geom.NewSquareGrid(side, float64(side)*10)
	h := varch.MustHierarchy(g)
	quorum := 4
	tab := stats.NewTable(fmt.Sprintf("E14: event-driven alarm vs periodic labeling (%dx%d grid, quorum %d)", side, side, quorum),
		"hot cells", "alarm energy", "alarm raised", "detect latency", "labeling energy")
	sigmas := []float64{0, 4, 8, 16, 32, 64}
	sweep(o, tab, len(sigmas), func(i int) rows {
		sigma := sigmas[i]
		var m *field.BinaryMap
		if sigma == 0 {
			m = field.Threshold(field.Constant{Value: 0}, g, 0.5, 0)
		} else {
			blaze := field.Blobs{Items: []field.Blob{
				{Center: geom.Point{X: g.Terrain.Width() * 0.6, Y: g.Terrain.Height() * 0.35}, Sigma: sigma, Peak: 1},
			}}
			m = field.Threshold(blaze, g, 0.5, 0)
		}
		alarmLedger := cost.NewLedger(cost.NewUniform(), g.N())
		vm := varch.NewMachine(h, sim.New(), alarmLedger)
		res, err := synth.RunAlarmOnMachine(vm, m, quorum)
		if err != nil {
			panic(err)
		}
		_, labelLedger := runDES(m, o.Trace)
		latency := "-"
		if res.Raised {
			latency = fmt.Sprint(res.RaisedAt)
		}
		return rows{{m.Count(), int64(alarmLedger.Metrics().Total), res.Raised, latency,
			int64(labelLedger.Metrics().Total)}}
	})
	return tab
}

// E15Lifetime simulates the system-lifetime metric round by round (rather
// than extrapolating from one round as E4 does): the mission runner drives
// the D&C duty cycle to first node death, and a matching loop does the same
// for the centralized baseline. The agreement with E4's extrapolation is
// itself a check on the cost model's compositionality.
func E15Lifetime(o Options) *stats.Table {
	const budget = cost.Energy(20_000)
	tab := stats.NewTable("E15: simulated lifetime to first node death (budget 20k units/node)",
		"side", "dc rounds", "central rounds", "dc/central", "dc hot spot", "central hot spot")
	ss := sides(o, 8, 16)
	sweep(o, tab, len(ss), func(i int) rows {
		side := ss[i]
		g := geom.NewSquareGrid(side, float64(side))
		phen := field.RandomBlobs(3, g.Terrain, float64(side)/8, float64(side)/5, rand.New(rand.NewSource(5)))
		out, err := mission.Run(mission.Config{
			Hier:       varch.MustHierarchy(g),
			Phenomenon: phen,
			Threshold:  0.5,
			Interval:   100,
			Budget:     budget,
		})
		if err != nil {
			panic(err)
		}
		// Centralized: repeat collection rounds on one cumulative ledger.
		lBase := cost.NewLedger(cost.NewUniform(), g.N())
		centralRounds := 0
		for centralRounds < 100_000 {
			m := field.Threshold(phen, g, 0.5, int64(centralRounds*100))
			baseline.Run(lBase, m, geom.Coord{})
			if lBase.MaxEnergy() > budget {
				break
			}
			centralRounds++
		}
		centralHot := 0
		for i := 0; i < lBase.N(); i++ {
			if lBase.Energy(i) > lBase.Energy(centralHot) {
				centralHot = i
			}
		}
		return rows{{side, out.RoundsSurvived, centralRounds,
			stats.Ratio(float64(out.RoundsSurvived), float64(centralRounds)),
			out.HotSpot(g).String(), g.CoordOf(centralHot).String()}}
	})
	return tab
}

// E11SyncSteps reproduces the Section 4.1 step-count claim in the
// synchronous (TDMA-style) regime: lockstep runs the DES machine under the
// step cost profile, where a "step" is exactly one store-and-forward hop
// and message sizes cannot blur the measure, so the completion time is the
// round count and must be Θ(√N) regardless of workload.
func E11SyncSteps(o Options) *stats.Table {
	tab := stats.NewTable("E11: synchronous engine — store-and-forward rounds vs N",
		"side", "N", "rounds(bounded)", "rounds(solid)", "rounds/side", "energy = DES")
	ss := sides(o, 4, 8, 16, 32, 64)
	sweep(o, tab, len(ss), func(i int) rows {
		side := ss[i]
		bounded := boundedMapFor(side)
		g := bounded.Grid
		h := varch.MustHierarchy(g)

		lb := cost.NewLedger(cost.NewUniform(), g.N())
		resB, err := lockstep.New(h, lb).Run(bounded)
		if err != nil {
			panic(err)
		}
		solid := field.Threshold(field.Constant{Value: 1}, g, 0.5, 0)
		ls := cost.NewLedger(cost.NewUniform(), g.N())
		resS, err := lockstep.New(h, ls).Run(solid)
		if err != nil {
			panic(err)
		}
		_, desLedger := runDES(bounded, o.Trace)
		return rows{{side, side * side, resB.Rounds, resS.Rounds,
			float64(resB.Rounds) / float64(side),
			lb.Metrics().Total == desLedger.Metrics().Total}}
	})
	return tab
}
