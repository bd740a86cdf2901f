package experiments

import (
	"fmt"
	"math/rand"

	"wsnva/internal/binding"
	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/emul"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/parallel"
	"wsnva/internal/shard"
	"wsnva/internal/sim"
	"wsnva/internal/stats"
	"wsnva/internal/synth"
	"wsnva/internal/varch"
)

// physSetup builds a valid dense deployment over a side×side grid with the
// given mean nodes-per-cell density, and the lossless runtime-system stack
// over it.
func physSetup(side, perCell int, txRange float64, seed int64) (*deploy.Network, *geom.Grid, *emul.Stack) {
	g := geom.NewSquareGrid(side, float64(side)*10)
	rng := rand.New(rand.NewSource(seed))
	nw, _, err := deploy.Generate(side*side*perCell, g, txRange, deploy.UniformRandom{}, rng, 200)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return nw, g, emul.NewStack(nw, g, emul.Config{})
}

// assemble runs the runtime system's set-up on s: topology emulation,
// the closest-to-center election (inside a Rotator when rotate is set),
// then the machine on the bound leaders.
func assemble(s *emul.Stack, rotate bool) (*emul.Machine, *binding.Rotator) {
	if _, m := s.Emulate(); !m.Complete {
		panic("experiments: emulation incomplete")
	}
	var rot *binding.Rotator
	var err error
	if rotate {
		rot, err = s.Rotator()
	} else {
		_, _, err = s.Bind()
	}
	if err != nil {
		panic(err)
	}
	pm, err := s.Machine()
	if err != nil {
		panic(err)
	}
	return pm, rot
}

// E5Emulation reproduces the three efficiency claims of Section 5.1 for
// the topology-emulation protocol: parallel per-cell setup, one-boundary
// suppression, and setup latency proportional to the longest intra-cell
// path. Swept over deployment density.
func E5Emulation(o Options) *stats.Table {
	tab := stats.NewTable("E5: topology emulation setup (4x4 grid)",
		"nodes/cell", "n", "range/cell", "bcasts/node", "setup time", "max path len", "time/path", "suppressed", "complete")
	densities := []struct {
		perCell int
		txRange float64
	}{
		{3, 14}, {5, 12}, {10, 11}, {20, 10},
	}
	if o.Quick {
		densities = densities[:2]
	}
	sweep(o, tab, len(densities), func(i int) rows {
		d := densities[i]
		nw, g, s := physSetup(4, d.perCell, d.txRange, int64(d.perCell)*13)
		_, m := s.Emulate()
		pathLen := nw.MaxIntraCellPathLen(g)
		timePerPath := "-"
		if pathLen > 0 {
			timePerPath = fmt.Sprintf("%.2f", float64(m.SetupTime)/float64(pathLen))
		}
		return rows{{d.perCell, nw.N(),
			fmt.Sprintf("%.2f", d.txRange/g.CellSide()),
			float64(m.Broadcasts) / float64(nw.N()),
			int64(m.SetupTime), pathLen, timePerPath,
			m.Suppressed, m.Complete}}
	})
	return tab
}

// E6Election reproduces Section 5.2: convergence cost and correctness of
// the closest-to-center leader election, swept over cell population.
func E6Election(o Options) *stats.Table {
	tab := stats.NewTable("E6: leader election (4x4 grid)",
		"nodes/cell", "n", "bcasts/node", "convergence", "demotions", "correct")
	densities := []int{3, 5, 10, 20}
	if o.Quick {
		densities = densities[:2]
	}
	sweep(o, tab, len(densities), func(i int) rows {
		perCell := densities[i]
		nw, _, s := physSetup(4, perCell, 12, int64(perCell)*17)
		_, res, err := s.Bind()
		return rows{{perCell, nw.N(),
			float64(res.Broadcasts) / float64(nw.N()),
			int64(res.Convergence), res.Demotions, err == nil}}
	})
	return tab
}

// E8Correspondence reproduces the methodology's central promise (Sections 2
// and 5): that performance analysis on the virtual architecture corresponds
// to measured performance on the emulated network. For each group level it
// compares the predicted follower-to-leader cost (minimum grid hops under
// the uniform model) against the physical cost measured over the emulated
// topology, reporting the mean physical-per-virtual hop ratio and the
// correlation between prediction and measurement.
func E8Correspondence(o Options) *stats.Table {
	tab := stats.NewTable("E8: analysis vs emulated measurement (follower -> leader)",
		"grid", "level", "pairs", "mean virt hops", "mean phys hops", "phys/virt", "energy corr")
	gridSides := []int{4, 8}
	if o.Quick {
		gridSides = gridSides[:1]
	}
	const msgSize = 4
	sweep(o, tab, len(gridSides), func(gi int) rows {
		side := gridSides[gi]
		_, g, s := physSetup(side, 8, 11, 29)
		p, m := s.Emulate()
		if !m.Complete {
			panic("experiments: emulation incomplete")
		}
		// Bind virtual processes so each cell has a concrete executor.
		bnd, _, err := s.Bind()
		if err != nil {
			panic(err)
		}
		h := varch.MustHierarchy(g)
		vm := varch.NewMachine(h, sim.New(), cost.NewLedger(cost.NewUniform(), g.N()))
		var out rows
		for level := 1; level <= h.Levels; level++ {
			var virt, phys []float64
			var predE, measE []float64
			for _, leader := range h.Leaders(level) {
				for _, f := range h.Followers(leader, level) {
					if f == leader {
						continue
					}
					pe, _ := vm.PredictLeaderCost(f, level, msgSize)
					before := s.Ledger().Total()
					path, err := p.RouteCells(bnd.Leaders[f], leader, msgSize)
					if err != nil {
						panic(err)
					}
					s.Kernel().Run() // drain deliveries so rx energy lands
					measured := float64(s.Ledger().Total() - before)
					virt = append(virt, float64(f.Manhattan(leader)))
					phys = append(phys, float64(len(path)))
					predE = append(predE, float64(pe))
					measE = append(measE, measured)
				}
			}
			vs, ps := stats.Summarize(virt), stats.Summarize(phys)
			out = append(out, []any{fmt.Sprintf("%dx%d", side, side), level, len(virt), vs.Mean, ps.Mean,
				stats.Ratio(ps.Mean, vs.Mean),
				stats.Correlation(predE, measE)})
		}
		return out
	})
	return tab
}

// E12TreeTopology reproduces the Section 3.2 remark that "for non-uniform
// deployments, other virtual topologies such as a tree could be more
// appropriate": as deployments cluster, the grid's occupancy precondition
// fails more and more often, while a BFS spanning tree keeps working
// whenever the network is connected — and its convergecast census beats
// per-node unicast collection on energy.
func E12TreeTopology(o Options) *stats.Table {
	tab := stats.NewTable("E12: tree virtual topology on non-uniform deployments (8x8 grid, 256 nodes)",
		"clustering", "grid occupancy ok", "tree spans", "tree depth", "census ok", "tree energy", "direct energy")
	spreads := []struct {
		name   string
		place  deploy.Placement
		trials int
	}{
		{"uniform", deploy.UniformRandom{}, 10},
		{"mild (σ=0.20)", deploy.Clustered{Clusters: 5, Spread: 0.20}, 10},
		{"strong (σ=0.10)", deploy.Clustered{Clusters: 5, Spread: 0.10}, 10},
		{"extreme (σ=0.05)", deploy.Clustered{Clusters: 4, Spread: 0.05}, 10},
	}
	if o.Quick {
		spreads = spreads[:2]
	}
	g := geom.NewSquareGrid(8, 100)
	// Per-trial task result; the per-spread row aggregates these in trial
	// order. The nested fan-out is safe: the pool is a shared semaphore and
	// the submitting task always works through its own sub-tasks.
	type trialResult struct {
		connected, occOK, spans, censusOK bool
		depth                             int
		treeEnergy, directEnergy          int64
	}
	sweep(o, tab, len(spreads), func(si int) rows {
		sp := spreads[si]
		results := parallel.Map(o.Pool, sp.trials, func(trial int) trialResult {
			rng := rand.New(rand.NewSource(int64(trial)*7 + 3))
			nw := deploy.New(256, g.Terrain, 18, sp.place, rng)
			if !nw.Connected() {
				return trialResult{} // tree and grid both need connectivity; skip
			}
			out := trialResult{connected: true, occOK: nw.OccupancyOK(g)}
			s := emul.NewStack(nw, g, emul.Config{})
			s.SetTracer(o.Trace)
			l := s.Ledger()
			p := s.Tree()
			m := p.Build(0)
			out.spans = m.Reached == nw.N()
			out.depth = m.MaxDepth
			before := l.Total()
			count, _ := p.Aggregate(func(int) int64 { return 1 }, func(a, b int64) int64 { return a + b })
			out.censusOK = count == int64(nw.N())
			out.treeEnergy = int64(l.Total() - before)
			for id := 0; id < nw.N(); id++ {
				out.directEnergy += int64(p.Depth(id)) * 2
			}
			return out
		})
		occOK, spans, censusOK := 0, 0, 0
		maxDepth := 0
		var treeEnergy, directEnergy int64
		measured := 0
		for _, r := range results {
			if !r.connected {
				continue
			}
			measured++
			if r.occOK {
				occOK++
			}
			if r.spans {
				spans++
			}
			if r.depth > maxDepth {
				maxDepth = r.depth
			}
			if r.censusOK {
				censusOK++
			}
			treeEnergy += r.treeEnergy
			directEnergy += r.directEnergy
		}
		if measured == 0 {
			return rows{{sp.name, "-", "-", "-", "-", "-", "-"}}
		}
		return rows{{sp.name,
			fmt.Sprintf("%d/%d", occOK, measured),
			fmt.Sprintf("%d/%d", spans, measured),
			maxDepth,
			fmt.Sprintf("%d/%d", censusOK, measured),
			treeEnergy / int64(measured), directEnergy / int64(measured)}}
	})
	return tab
}

// E13LossyEmulation measures the Section 5.1 protocol under an unreliable
// radio: how many periodic re-executions ("the above protocol should
// execute periodically") a lossy network needs before every routing table
// is complete, and what the redundancy of dense deployments buys. It also
// reports the flooding baseline's cost for injecting one query into the
// same network, the unstructured comparator for every structured scheme.
func E13LossyEmulation(o Options) *stats.Table {
	tab := stats.NewTable("E13: emulation under radio loss (4x4 grid, 8 nodes/cell)",
		"loss", "complete after Run", "reinforce rounds", "total bcasts", "flood forwards", "flood energy")
	losses := []float64{0, 0.2, 0.4, 0.6, 0.8}
	if o.Quick {
		losses = losses[:2]
	}
	sweep(o, tab, len(losses), func(i int) rows {
		loss := losses[i]
		g := geom.NewSquareGrid(4, 40)
		rng := rand.New(rand.NewSource(61))
		nw, _, err := deploy.Generate(128, g, 11, deploy.UniformRandom{}, rng, 200)
		if err != nil {
			panic(err)
		}
		p, m := emul.NewStack(nw, g, emul.Config{Loss: loss, Seed: 62}).Emulate()
		firstComplete := m.Complete
		rounds := 0
		for !m.Complete && rounds < 50 {
			m = p.Reinforce()
			rounds++
		}
		// Flooding baseline on the same deployment and loss rate: repeat
		// until every node has heard the query at least once or 10 attempts
		// passed. Each attempt is one one-shard engine run with its own
		// loss seed; the channel is keyed by (seed, sender, attempt index),
		// so reusing a seed would replay the same losses.
		covered := make([]bool, nw.N())
		covered[0] = true
		uncovered := nw.N() - 1
		var forwards int64
		var energy cost.Energy
		for attempt := 0; attempt < 10 && uncovered > 0; attempt++ {
			res, err := shard.Run(nw, shard.Config{Origins: []int{0}, PktSize: 2,
				Loss: loss, Seed: 62 + int64(attempt)})
			if err != nil {
				panic(err)
			}
			forwards += res.Forwards
			energy += res.Total
			for id, heard := range res.Heard {
				if heard != 0 && !covered[id] {
					covered[id] = true
					uncovered--
				}
			}
		}
		return rows{{loss, firstComplete, rounds, m.Broadcasts, forwards, int64(energy)}}
	})
	return tab
}

// E16WholeApp closes the correspondence loop at application granularity:
// the same synthesized labeling round runs on the virtual machine (the
// designer's analysis) and on the assembled physical runtime (emulated
// topology + elected leaders), and the table reports the whole-round
// energy, completion, and the physical/virtual inflation — the end-to-end
// version of E8's per-message check.
func E16WholeApp(o Options) *stats.Table {
	tab := stats.NewTable("E16: whole-application correspondence (virtual vs physical runtime)",
		"grid", "nodes/cell", "regions", "virt energy", "phys energy", "phys/virt", "virt t", "phys t", "same result")
	cases := []struct {
		side, perCell int
		seed          int64
	}{
		{4, 6, 3}, {4, 10, 5}, {8, 6, 7},
	}
	if o.Quick {
		cases = cases[:1]
	}
	sweep(o, tab, len(cases), func(i int) rows {
		tc := cases[i]
		_, g, s := physSetup(tc.side, tc.perCell, 12.5, tc.seed)
		pm, _ := assemble(s, false)
		physLedger := s.Ledger()
		fmap := field.Threshold(field.RandomBlobs(2, g.Terrain,
			g.Terrain.Width()/6, g.Terrain.Width()/4, rand.New(rand.NewSource(tc.seed+9))), g, 0.5, 0)

		setupEnergy := physLedger.Metrics().Total
		physRes, err := pm.RunLabeling(fmap)
		if err != nil {
			panic(err)
		}
		physEnergy := int64(physLedger.Metrics().Total - setupEnergy)

		virtLedger := cost.NewLedger(cost.NewUniform(), g.N())
		virtRes, err := synth.RunOnMachine(varch.NewMachine(varch.MustHierarchy(g), sim.New(), virtLedger), fmap)
		if err != nil {
			panic(err)
		}
		return rows{{fmt.Sprintf("%dx%d", tc.side, tc.side), tc.perCell,
			virtRes.Final.Count(),
			int64(virtLedger.Metrics().Total), physEnergy,
			stats.Ratio(float64(physEnergy), float64(virtLedger.Metrics().Total)),
			int64(virtRes.Completion), int64(physRes.Completion),
			physRes.Final.Equal(virtRes.Final)}}
	})
	return tab
}

// E10Churn reproduces the Section 5.1 maintenance claim ("the above
// protocol should execute periodically" to handle joins and failures):
// the message cost of incremental repair after node failures versus a full
// re-execution, swept over the number of simultaneous failures.
func E10Churn(o Options) *stats.Table {
	tab := stats.NewTable("E10: emulation maintenance under churn (4x4 grid, 10 nodes/cell)",
		"failures", "full bcasts", "repair bcasts", "repair/full", "repair time", "complete")
	failures := []int{1, 2, 5, 10}
	if o.Quick {
		failures = failures[:2]
	}
	sweep(o, tab, len(failures), func(i int) rows {
		kills := failures[i]
		nw, g, s := physSetup(4, 10, 11, int64(kills)*41)
		p, full := s.Emulate()
		if !full.Complete {
			panic("experiments: initial emulation incomplete")
		}
		// Kill nodes from crowded cells so occupancy survives.
		members := nw.CellMembers(g)
		var victims []int
		for _, m := range members {
			if len(victims) >= kills {
				break
			}
			if len(m) >= 5 {
				victims = append(victims, m[0])
			}
		}
		p.Kill(victims...)
		rep := p.RepairIncremental()
		repairB := rep.Broadcasts - full.Broadcasts
		return rows{{len(victims), full.Broadcasts, repairB,
			stats.Ratio(float64(repairB), float64(full.Broadcasts)),
			int64(rep.SetupTime), rep.Complete}}
	})
	return tab
}
