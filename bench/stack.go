package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"wsnva/internal/binding"
	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/emul"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/lockstep"
	"wsnva/internal/radio"
	"wsnva/internal/regions"
	wsnrt "wsnva/internal/runtime"
	"wsnva/internal/shard"
	"wsnva/internal/sim"
	"wsnva/internal/synth"
	"wsnva/internal/varch"
	"wsnva/internal/vtopo"
)

const deployAttempts = 100

// generate is deploy.Generate with the paper's placement and range
// (1.2 cell sides). Untraced it calls deploy.Generate; traced it replays
// Generate's own loop through the same public calls, so that building a
// candidate (deploy.New on the shared pool) and validating it
// (Scratch.Connected, CellsConnected, AdjacentCellsLinked) time
// separately. Both draw the same placements from rng.
func generate(n int, grid *geom.Grid, rng *rand.Rand, i int, parent int32, tr *tracer) (*deploy.Network, int, error) {
	txRange := grid.CellSide() * 1.2
	sp := tr.begin("deploy.generate", i, parent)
	defer tr.end(sp)
	if tr == nil {
		return deploy.Generate(n, grid, txRange, deploy.UniformRandom{}, rng, deployAttempts)
	}
	s := deploy.NewScratch()
	for a := 1; a <= deployAttempts; a++ {
		b := tr.begin("deploy.build", i, sp)
		nw := deploy.New(n, grid.Terrain, txRange, deploy.UniformRandom{}, rng)
		tr.end(b)
		v := tr.begin("deploy.validate", i, sp)
		ok := s.Connected(nw) && s.CellsConnected(nw, grid) && s.AdjacentCellsLinked(nw, grid)
		tr.end(v)
		if ok {
			return nw, a, nil
		}
	}
	return nil, deployAttempts, fmt.Errorf("no valid deployment in %d attempts (n=%d)", deployAttempts, n)
}

// counts are the per-op protocol counters a traced run reports.
type counts struct {
	attempts, vtopoBcasts, bindBcasts, physHops, events int64
	delivered                                           int64
	runS1, runS2                                        time.Duration
}

func (c *counts) add(o counts) {
	c.attempts += o.attempts
	c.vtopoBcasts += o.vtopoBcasts
	c.bindBcasts += o.bindBcasts
	c.physHops += o.physHops
	c.events += o.events
	c.delivered += o.delivered
	c.runS1 += o.runS1
	c.runS2 += o.runS2
}

// runTrials is the one-client closed loop paper-stack and flood-scale
// share: set-up runs warm, then trial runs op after op until the time is
// up. It returns the number of ops run and their summed counters.
func runTrials(r *run, digestOps int, warm func() error, trial func(i int, tr *tracer) ([]byte, counts, error)) (int, counts, error) {
	var total counts
	_, setup, err := repeatSetup(r.setupReps, func() (struct{}, error) { return struct{}{}, warm() }, func(struct{}) {})
	if err != nil {
		return 0, total, err
	}
	minOps := r.minOrDefault(digestOps)
	docs := make([][]byte, minOps)
	runtime.GC()
	l := closedLoop(1, r.duration(), minOps, r.maxOps, func(_, i int) error {
		doc, c, err := trial(i, r.tr)
		if err != nil {
			return err
		}
		total.add(c)
		if i < minOps {
			docs[i] = doc
		}
		return nil
	})
	r.count(l)
	r.digest = digestOf(docs)
	if !r.traced {
		r.endToEndMetrics(setup, l)
	}
	return l.lat.n, total, nil
}

// ------------------------------------------------------------- paper-stack

// paper-stack: many small trials of the paper's Sec 4-5 pipeline, so
// set-up protocols and the five labeling engines dominate.
const (
	paperSide      = 8
	paperDensity   = 10
	paperDigestOps = 100
	paperWarmups   = 10
)

// paperTrial runs trial i: deploy, emulate the virtual grid (vtopo), bind
// leaders, label on the physical emulation, then label the same map with
// the varch DES machine, lockstep, the sharded kernel and the goroutine
// runtime, and check all of them against regions.Label.
func paperTrial(seed int64, i int, tr *tracer) ([]byte, counts, error) {
	s := opStream(seed, i)
	netSeed, fieldSeed := s.seed63(), s.seed63()
	root := tr.begin("op", i, -1)
	defer tr.end(root)
	var c counts

	grid := geom.NewSquareGrid(paperSide, float64(paperSide)*10)
	nw, attempts, err := generate(paperSide*paperSide*paperDensity, grid, rand.New(rand.NewSource(netSeed)), i, root, tr)
	if err != nil {
		return nil, c, err
	}
	c.attempts = int64(attempts)

	sp := tr.begin("radio.medium", i, root)
	med := radio.NewMedium(nw, sim.New(), cost.NewLedger(cost.NewUniform(), nw.N()),
		rand.New(rand.NewSource(netSeed+1)), radio.Config{})
	tr.end(sp)

	sp = tr.begin("vtopo.setup", i, root)
	proto := vtopo.New(med, grid)
	em := proto.Run()
	tr.end(sp)
	c.vtopoBcasts = em.Broadcasts

	sp = tr.begin("binding.bind", i, root)
	bnd, bres, err := binding.Bind(med, grid, binding.MinDistance{Network: nw, Grid: grid})
	tr.end(sp)
	if err != nil {
		return nil, c, fmt.Errorf("bind: %w", err)
	}
	c.bindBcasts = bres.Broadcasts

	sp = tr.begin("app.setup", i, root)
	m := field.Threshold(field.RandomBlobs(4, grid.Terrain, grid.Terrain.Width()/10, grid.Terrain.Width()/6,
		rand.New(rand.NewSource(fieldSeed))), grid, 0.5, 0)
	h := varch.MustHierarchy(grid)
	tr.end(sp)

	sp = tr.begin("emul.new", i, root)
	mach, err := emul.New(h, proto, bnd, med)
	tr.end(sp)
	if err != nil {
		return nil, c, fmt.Errorf("emul: %w", err)
	}
	sp = tr.begin("emul.label", i, root)
	eres, err := mach.RunLabeling(m)
	tr.end(sp)
	if err != nil {
		return nil, c, fmt.Errorf("emul: %w", err)
	}
	c.physHops = eres.PhysHops
	c.events = med.Kernel().Fired()

	sp = tr.begin("synth.des_label", i, root)
	k := sim.New()
	desLedger := cost.NewLedger(cost.NewUniform(), grid.N())
	dres, err := synth.RunOnMachine(varch.NewMachine(h, k, desLedger), m)
	tr.end(sp)
	if err != nil {
		return nil, c, fmt.Errorf("des: %w", err)
	}
	c.events += k.Fired()

	sp = tr.begin("lockstep.label", i, root)
	lockLedger := cost.NewLedger(cost.NewUniform(), grid.N())
	lres, err := lockstep.New(h, lockLedger).Run(m)
	tr.end(sp)
	if err != nil {
		return nil, c, fmt.Errorf("lockstep: %w", err)
	}

	sp = tr.begin("shard.label", i, root)
	sres, err := shard.RunLabeling(m, shard.LabelConfig{})
	tr.end(sp)
	if err != nil {
		return nil, c, fmt.Errorf("shard: %w", err)
	}

	sp = tr.begin("runtime.label", i, root)
	rtLedger := cost.NewLedger(cost.NewUniform(), grid.N())
	rres, err := wsnrt.New(h).Run(m, rtLedger, wsnrt.Config{})
	tr.end(sp)
	if err != nil {
		return nil, c, fmt.Errorf("runtime: %w", err)
	}

	sp = tr.begin("regions.truth", i, root)
	truth := regions.Label(m).Count
	tr.end(sp)

	sp = tr.begin("check", i, root)
	defer tr.end(sp)
	if !em.Complete {
		return nil, c, fmt.Errorf("vtopo incomplete: %d unreachable", em.Unreachable)
	}
	if err := bres.Verify(nw, grid); err != nil {
		return nil, c, fmt.Errorf("binding: %w", err)
	}
	for _, e := range []struct {
		name  string
		final *regions.Summary
	}{{"emul", eres.Final}, {"des", dres.Final}, {"lockstep", lres.Final}, {"shard", sres.Final}, {"runtime", rres.Final}} {
		if e.final == nil || e.final.Count() != truth {
			return nil, c, fmt.Errorf("%s labeling disagrees with regions.Label (%d regions)", e.name, truth)
		}
	}
	energy := desLedger.Metrics().Total
	if lockLedger.Metrics().Total != energy || rtLedger.Metrics().Total != energy {
		return nil, c, fmt.Errorf("energy differs: des %d, lockstep %d, runtime %d",
			energy, lockLedger.Metrics().Total, rtLedger.Metrics().Total)
	}
	doc := fmt.Appendf(nil, "%d %d %d %d %d %d %d %d %d %d %d %016x %d %d\n",
		attempts, em.Broadcasts, em.SetupTime, bres.Broadcasts, bres.Convergence,
		eres.Completion, eres.PhysHops, dres.Completion, dres.RuleFirings,
		lres.Rounds, lres.Messages, sres.Checksum(), truth, energy)
	return doc, c, nil
}

func runPaperStack(r *run) error {
	ops, total, err := runTrials(r, paperDigestOps, func() error {
		for k := 0; k < paperWarmups; k++ {
			if _, _, err := paperTrial(warmSeed, -2-k, nil); err != nil {
				return err
			}
		}
		return nil
	}, func(i int, tr *tracer) ([]byte, counts, error) { return paperTrial(r.seed, i, tr) })
	if err != nil || !r.traced {
		return err
	}
	m, n := r.metrics, float64(ops)
	m["deploy.attempts.mean"] = float64(total.attempts) / n
	m["vtopo.broadcasts.mean"] = float64(total.vtopoBcasts) / n
	m["binding.broadcasts.mean"] = float64(total.bindBcasts) / n
	m["emul.phys_hops.mean"] = float64(total.physHops) / n
	m["sim.events.mean"] = float64(total.events) / n
	return nil
}

// ------------------------------------------------------------- flood-scale

// flood-scale: few large missions, so the deploy CSR build and the
// sharded kernel's radio fan-out do nearly all the work.
const (
	floodSide      = 32
	floodDensity   = 16
	floodFloods    = 2
	floodShards    = 2
	floodWorkers   = 2
	floodDigestOps = 2
	floodWarmSide  = 16 // set-up runs one mission at this side
)

// floodMission runs mission i at the given side: deploy.Generate, then
// shard.Run with floodFloods floods on floodShards shards. Traced, it also
// runs floodTracedChecks, whose results must match the measured ones
// exactly.
func floodMission(seed int64, i, side int, tr *tracer) ([]byte, counts, error) {
	s := opStream(seed, i)
	netSeed := s.seed63()
	root := tr.begin("op", i, -1)
	defer tr.end(root)
	var c counts

	grid := geom.NewSquareGrid(side, float64(side)*10)
	n := side * side * floodDensity
	nw, attempts, err := generate(n, grid, rand.New(rand.NewSource(netSeed)), i, root, tr)
	if err != nil {
		return nil, c, err
	}
	c.attempts = int64(attempts)

	cfg := shard.Config{Floods: floodFloods, Shards: floodShards, Workers: floodWorkers}
	sp := tr.begin("shard.run_s2", i, root)
	t0 := time.Now()
	res, err := shard.Run(nw, cfg)
	c.runS2 = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, c, fmt.Errorf("shard.Run: %w", err)
	}
	c.delivered = res.Delivered

	if tr != nil {
		if c.runS1, err = floodTracedChecks(nw, grid, netSeed, attempts, cfg, res, i, root, tr); err != nil {
			return nil, c, err
		}
	}

	sp = tr.begin("check", i, root)
	defer tr.end(sp)
	_, adj := nw.CSRView()
	k := int64(floodFloods)
	for j, got := range res.Reached {
		if got != int64(n-1) {
			return nil, c, fmt.Errorf("flood %d reached %d of %d nodes", j, got, n-1)
		}
	}
	if res.Sent != k*int64(n) || res.Delivered != k*int64(len(adj)) {
		return nil, c, fmt.Errorf("sent %d (want %d), delivered %d (want %d)",
			res.Sent, k*int64(n), res.Delivered, k*int64(len(adj)))
	}
	doc := fmt.Appendf(nil, "%d %d %d %d %d %d %d %016x\n",
		attempts, res.Forwards, res.Ignored, res.Sent, res.Delivered, res.Completion, res.Total, res.Checksum())
	return doc, c, nil
}

// floodTracedChecks rebuilds the first candidate without a pool and
// reruns the floods on one shard; it returns the 1-shard run's time.
func floodTracedChecks(nw *deploy.Network, grid *geom.Grid, netSeed int64, attempts int, cfg shard.Config, s2 *shard.Result, i int, root int32, tr *tracer) (time.Duration, error) {
	sp := tr.begin("deploy.build_seq", i, root)
	seq := deploy.NewWithPool(nw.N(), grid.Terrain, grid.CellSide()*1.2, deploy.UniformRandom{},
		rand.New(rand.NewSource(netSeed)), nil)
	tr.end(sp)
	if attempts == 1 && !sameCSR(seq, nw) {
		return 0, fmt.Errorf("sequential build differs from the pooled build")
	}
	cfg.Shards, cfg.Workers = 1, 1
	sp = tr.begin("shard.run_s1", i, root)
	t0 := time.Now()
	s1, err := shard.Run(nw, cfg)
	d := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return d, fmt.Errorf("shard.Run on 1 shard: %w", err)
	}
	if s1.Checksum() != s2.Checksum() {
		return d, fmt.Errorf("checksum on 1 shard %016x, on %d shards %016x", s1.Checksum(), floodShards, s2.Checksum())
	}
	return d, nil
}

func sameCSR(a, b *deploy.Network) bool {
	ao, ae := a.CSRView()
	bo, be := b.CSRView()
	return slices.Equal(ao, bo) && slices.Equal(ae, be)
}

func runFloodScale(r *run) error {
	ops, total, err := runTrials(r, floodDigestOps, func() error {
		_, _, err := floodMission(warmSeed, -2, floodWarmSide, nil)
		return err
	}, func(i int, tr *tracer) ([]byte, counts, error) { return floodMission(r.seed, i, floodSide, tr) })
	if err != nil || !r.traced {
		return err
	}
	m := r.metrics
	m["deploy.attempts.mean"] = float64(total.attempts) / float64(ops)
	m["shard.speedup_s2"] = total.runS1.Seconds() / total.runS2.Seconds()
	m["shard.deliveries_per_s"] = float64(total.delivered) / total.runS2.Seconds()
	return nil
}
