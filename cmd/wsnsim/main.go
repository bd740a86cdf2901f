// Command wsnsim runs the full stack end to end, the way a deployment
// would: generate a physical deployment, emulate the virtual grid over it
// (Section 5.1), bind virtual processes by leader election (Section 5.2),
// then execute the synthesized homogeneous-region labeling program on the
// virtual architecture and report the topographic map, the labeled regions,
// and the cost metrics.
//
// Usage:
//
//	wsnsim [-side 8] [-density 6] [-n 0] [-seed 1] [-field blobs|gradient|stripes]
//	       [-thresh 0.5] [-engine des|lockstep|goroutine|physical|shard]
//	       [-loss 0] [-retries 0] [-crash-frac 0] [-crash-window 32]
//	       [-churn-rate 0] [-duty-cycle period:on]
//	       [-shards 0] [-workers 0] [-trace 0] [-trace-out trace.jsonl] [-metrics]
//
// -n overrides the physical node count (default side²·density). Million-node
// runs pair it with a proportionally larger -side so per-cell density stays
// around the occupancy sweet spot, e.g.:
//
//	wsnsim -n 1000000 -side 256 -engine shard -shards 64 -workers 8
//
// On the shard engine the topology-emulation and leader-election phases are
// skipped — their results feed only the physical engine, and at millions of
// nodes they would dominate the run for output nothing downstream reads.
//
// -shards sets how many spatial shards the program-injection phase runs
// on (internal/shard): the image dissemination runs on that many shards
// over -workers goroutines. The default 0 runs it on one shard, a single
// sequential kernel; results are identical either way.
//
// -churn-rate and -duty-cycle inject topology churn. On the physical
// engine they turn the run into a churn mission: the schedule suspends
// and resumes radios against the live runtime, each disturbance is
// repaired incrementally, and labeling rounds interleave between
// batches. On the shard engine the schedule rides the conservative
// window protocol as cross-shard events; the result stays shard-count
// invariant. -churn-rate r draws a Poisson process (expected r
// transitions per time unit); -duty-cycle period:on puts every radio on
// a staggered period with the given on-phase. Both may be combined.
//
// -trace N prints the last N events of the run's one trace on the DES
// engine, and -trace-out exports the whole trace as JSONL; given both,
// they read the same trace.
//
// -engine shard runs the labeling application itself on the sharded
// kernel (one node per virtual cell), honoring -shards/-workers, -loss
// (Bernoulli, counter-keyed so the result is shard-count invariant),
// and -crash-frac/-crash-window (that fraction of nodes fail-stops at
// random instants inside the window). A run whose relays die before
// the root summary assembles reports STALLED.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"slices"
	"strings"

	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/emul"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/lockstep"
	"wsnva/internal/metrics"
	"wsnva/internal/regions"
	"wsnva/internal/runtime"
	"wsnva/internal/serve"
	"wsnva/internal/shard"
	"wsnva/internal/sim"
	"wsnva/internal/synth"
	"wsnva/internal/trace"
	"wsnva/internal/varch"
)

// engines are the -engine values, in the order the help text lists them.
var engines = []string{"des", "lockstep", "goroutine", "physical", "shard"}

func main() {
	side := flag.Int("side", 8, "virtual grid side (power of two)")
	density := flag.Int("density", 6, "mean physical nodes per grid cell")
	nodes := flag.Int("n", 0, "physical node count (0 = side*side*density)")
	seed := flag.Int64("seed", 1, "deployment and field seed")
	fieldName := flag.String("field", "blobs", "phenomenon: blobs, gradient, stripes, solid")
	thresh := flag.Float64("thresh", 0.5, "feature threshold")
	engine := flag.String("engine", "des", "execution engine: "+strings.Join(engines, ", "))
	loss := flag.Float64("loss", 0, "message loss probability (goroutine and shard engines)")
	retries := flag.Int("retries", 0, "stop-and-wait retransmissions per message (goroutine engine only)")
	crashFrac := flag.Float64("crash-frac", 0, "fraction of nodes that fail-stop mid-run (shard engine only)")
	crashWindow := flag.Int64("crash-window", 32, "crash times are drawn uniformly from [0, window) (shard engine only)")
	churnRate := flag.Float64("churn-rate", 0, "Poisson sleep/wake churn: expected radio transitions per time unit (physical and shard engines)")
	dutyCycle := flag.String("duty-cycle", "", "duty-cycle every radio on a staggered period:on schedule, e.g. 64:48 (physical and shard engines)")
	shards := flag.Int("shards", 0, "run program injection on this many spatial shards (0 = one, the sequential kernel)")
	workers := flag.Int("workers", 0, "goroutines driving the shards (0 = GOMAXPROCS)")
	traceN := flag.Int("trace", 0, "print the last N events of the run's trace (DES engine only; the trace keeps every machine event, about 550 at side 8)")
	traceOut := flag.String("trace-out", "", "export the run's structured trace as JSONL to this file (des and physical engines)")
	showMetrics := flag.Bool("metrics", false, "print the per-node metrics snapshot after the run (DES engine only)")
	flag.Parse()
	// Reject a misspelled engine before the deployment and set-up phases,
	// which take minutes at -n in the millions.
	if !slices.Contains(engines, *engine) {
		log.Fatalf("wsnsim: unknown engine %q (want one of %s)", *engine, strings.Join(engines, ", "))
	}
	if !geom.IsPow2(*side) {
		log.Fatalf("wsnsim: -side must be a power of two, got %d", *side)
	}

	grid := geom.NewSquareGrid(*side, float64(*side)*10)
	rng := rand.New(rand.NewSource(*seed))

	// Physical layer: deployment satisfying the paper's assumptions.
	n := *side * *side * *density
	if *nodes > 0 {
		n = *nodes
	}
	txRange := grid.CellSide() * 1.2
	nw, attempts, err := deploy.Generate(n, grid, txRange, deploy.UniformRandom{}, rng, 100)
	if err != nil {
		log.Fatalf("wsnsim: %v", err)
	}
	fmt.Printf("deployment: %d nodes on %.0fx%.0f terrain, range %.1f, avg degree %.1f (%d attempts)\n",
		nw.N(), grid.Terrain.Width(), grid.Terrain.Height(), txRange, nw.AvgDegree(), attempts)

	// Program injection: ship the synthesized image to every node before
	// the runtime-system protocols assume it. Every shard count computes
	// the identical result (internal/shard's shard-count invariance).
	inj, err := shard.Run(nw, shard.Config{Origins: []int{0}, PktSize: 8, Shards: *shards, Workers: *workers})
	if err != nil {
		log.Fatalf("wsnsim: injection failed: %v", err)
	}
	engineName := "sequential kernel"
	if *shards > 1 {
		engineName = fmt.Sprintf("%d shards", *shards)
	}
	fmt.Printf("program injection (%s): %d/%d nodes reached at t=%d, energy %d units\n",
		engineName, inj.Reached[0]+1, inj.Nodes, inj.Completion, inj.Total)

	// Runtime system: topology emulation + virtual-process binding. Only
	// the physical engine consumes the emulation tables and the binding,
	// so the shard engine skips the whole phase — at -n in the millions it
	// would dominate the run for unread output.
	var stack *emul.Stack
	if *engine != "shard" {
		stack = emul.NewStack(nw, grid, emul.Config{})
		_, em := stack.Emulate()
		fmt.Printf("topology emulation: %d broadcasts, setup time %d, complete=%v\n",
			em.Broadcasts, em.SetupTime, em.Complete)
		if !em.Complete {
			log.Fatal("wsnsim: emulation incomplete; raise -density")
		}
		bnd, bres, err := stack.Bind()
		if err != nil {
			log.Fatalf("wsnsim: binding failed: %v", err)
		}
		fmt.Printf("binding: %d leaders elected in %d broadcasts (convergence %d); runtime-system energy %d units\n",
			len(bnd.Leaders), bres.Broadcasts, bres.Convergence, stack.Ledger().Metrics().Total)
	}

	// Application layer: sense, threshold, label.
	phen, err := serve.MissionField(*fieldName, grid, *seed)
	if err != nil {
		log.Fatalf("wsnsim: %v", err)
	}
	m := field.Threshold(phen, grid, *thresh, 0)
	fmt.Printf("\nphenomenon %q thresholded at %.2f -> %d feature cells:\n%s\n",
		phen.Name(), *thresh, m.Count(), m)

	h := varch.MustHierarchy(grid)
	var final *regions.Summary
	switch *engine {
	case "des":
		ledger := cost.NewLedger(cost.NewUniform(), grid.N())
		k := sim.New()
		vm := varch.NewMachine(h, k, ledger)
		// One tracer serves both flags: -trace prints its tail, and a
		// JSONL export attaches the whole stack to it (machine, ledger, and
		// kernel).
		var tr *trace.Tracer
		if *traceN > 0 || *traceOut != "" {
			tr = trace.New()
			vm.SetTracer(tr)
		}
		if *traceOut != "" {
			ledger.SetTracer(tr, k.Now)
			k.SetProbe(trace.KernelProbe(tr))
		}
		var reg *metrics.Registry
		if *showMetrics {
			reg = metrics.NewRegistry()
			vm.SetMetrics(reg)
		}
		res, err := synth.RunOnMachine(vm, m)
		if err != nil {
			log.Fatalf("wsnsim: %v", err)
		}
		final = res.Final
		met := ledger.Metrics()
		fmt.Printf("labeling (DES engine): completed at t=%d, %d rule firings\n", res.Completion, res.RuleFirings)
		fmt.Printf("energy: total %d, max node %d, balance %.2f\n", met.Total, met.Max, met.Balance)
		if *traceN > 0 {
			evs := tr.Events()
			fmt.Printf("\nlast %d trace events (%d sends, %d deliveries total):\n%s",
				*traceN, tr.Count(trace.Send), tr.Count(trace.Deliver), trace.Timeline(evs[max(0, len(evs)-*traceN):]))
		}
		if *traceOut != "" {
			exportTrace(*traceOut, tr)
		}
		if reg != nil {
			fmt.Printf("\nmetrics snapshot:\n%s", reg.Snapshot())
		}
	case "lockstep":
		ledger := cost.NewLedger(cost.NewUniform(), grid.N())
		res, err := lockstep.New(h, ledger).Run(m)
		if err != nil {
			log.Fatalf("wsnsim: %v", err)
		}
		final = res.Final
		met := ledger.Metrics()
		fmt.Printf("labeling (lockstep engine): %d synchronous rounds, %d messages, %d hops\n",
			res.Rounds, res.Messages, res.HopsMoved)
		fmt.Printf("energy: total %d, max node %d, balance %.2f\n", met.Total, met.Max, met.Balance)
	case "physical":
		// The assembled runtime: the application executes on the elected
		// leaders over the emulated topology, sharing the physical ledger.
		bndMachine, err := stack.Machine()
		if err != nil {
			log.Fatalf("wsnsim: %v", err)
		}
		var exp *trace.Tracer
		if *traceOut != "" {
			// Attached after setup, so the trace covers the application run:
			// both planes (virtual sends on the machine, physical tx/rx on the
			// medium) plus every ledger charge.
			exp = trace.New()
			bndMachine.SetTracer(exp)
			stack.SetTracer(exp)
		}
		physLedger := stack.Ledger()
		before := physLedger.Metrics().Total
		period, on := dutyFlag(*dutyCycle)
		if plan := serve.ChurnSchedule(nw.N(), *churnRate, period, on, churnHorizon, *seed); len(plan) > 0 {
			// Churn mission: the schedule drives sleep/wake and
			// depart/revive transitions against the live runtime, each
			// followed by incremental repair; labeling rounds interleave to
			// prove the repaired network still computes. The close-out
			// wakes whatever the schedule leaves asleep at the horizon, so
			// the concluding labeling round measures the repaired network
			// rather than the residual sleep set.
			sched, woke := plan.Settle(churnHorizon + 1)
			out, err := bndMachine.RunChurn(emul.ChurnConfig{Schedule: sched, Map: m, RoundEvery: 4})
			if err != nil {
				log.Fatalf("wsnsim: %v", err)
			}
			fmt.Printf("churn mission (physical runtime): %d disturbances — %d suspends, %d resumes, %d departures, %d arrivals\n",
				len(out.Disturbances), out.Suspends, out.Resumes, out.Departures, out.Arrivals)
			fmt.Printf("repair: %d routing broadcasts, max re-convergence latency %d, recovered=%v\n",
				out.RepairMsgs, out.MaxLatency, out.AllRecovered)
			fmt.Printf("labeling rounds interleaved: %d, final coverage %.2f\n",
				out.Rounds, out.FinalCoverage)
			fmt.Printf("mission energy on the real network: %d units\n",
				physLedger.Metrics().Total-before)
			if exp != nil {
				exportTrace(*traceOut, exp)
			}
			if out.Final.Final == nil {
				// The round stalled although the close-out woke every radio
				// the schedule left asleep at the horizon; say how many.
				fmt.Printf("final labeling round STALLED: %d radios still asleep at the horizon\n", woke)
				return
			}
			final = out.Final.Final
			break
		}
		res, err := bndMachine.RunLabeling(m)
		if err != nil {
			log.Fatalf("wsnsim: %v", err)
		}
		final = res.Final
		fmt.Printf("labeling (physical runtime): completed at t=%d, %d physical hops, %d rule firings\n",
			res.Completion, res.PhysHops, res.RuleFirings)
		fmt.Printf("application energy on the real network: %d units\n",
			physLedger.Metrics().Total-before)
		if exp != nil {
			exportTrace(*traceOut, exp)
		}
	case "shard":
		// serve.EngineConfig turns the flags into the engine config,
		// crash and churn schedules included, so this run is the
		// wsnserve mission of the same spec.
		period, on := dutyFlag(*dutyCycle)
		cfg, err := serve.EngineConfig(&serve.Spec{
			Side: *side, Seed: *seed, Shards: *shards, Workers: *workers, Loss: *loss,
			CrashFrac: *crashFrac, CrashWindow: *crashWindow,
			ChurnRate: *churnRate, DutyPeriod: period, DutyOn: on,
			Trace: *traceOut != "",
		}, grid.N(), nil)
		if err != nil {
			log.Fatalf("wsnsim: %v", err)
		}
		res, err := shard.RunLabeling(m, shard.LabelConfig{Config: cfg})
		if err != nil {
			log.Fatalf("wsnsim: %v", err)
		}
		if len(cfg.Churn) > 0 {
			fmt.Printf("churn: %d scheduled transitions applied as %d suspends / %d resumes\n",
				len(cfg.Churn), res.Suspends, res.Resumes)
		}
		if *traceOut != "" {
			if err := os.WriteFile(*traceOut, res.Trace, 0o644); err != nil {
				log.Fatalf("wsnsim: %v", err)
			}
			fmt.Printf("trace: canonical JSONL exported to %s (%d bytes)\n", *traceOut, len(res.Trace))
		}
		fmt.Printf("labeling (%s): %d msgs over %d hops, %d sent / %d delivered / %d dropped, %d deaths, energy %d\n",
			engineName, res.Msgs, res.Hops, res.Sent, res.Delivered, res.Dropped, res.Deaths, res.Total)
		if res.Final == nil {
			fmt.Printf("labeling STALLED at t=%d: the single-shot reduction lost messages or relays (loss %.2f, %d deaths, %d suspends)\n",
				res.Completion, *loss, res.Deaths, res.Suspends)
			return
		}
		final = res.Final
		fmt.Printf("root summary assembled at t=%d (run drained at t=%d)\n", res.FinalAt, res.Completion)
	case "goroutine":
		ledger := cost.NewLedger(cost.NewUniform(), grid.N())
		res, err := runtime.New(h).Run(m, ledger, runtime.Config{Loss: *loss, Retries: *retries, Seed: *seed})
		if err != nil {
			log.Fatalf("wsnsim: %v", err)
		}
		if res.Final == nil {
			fmt.Printf("labeling (goroutine engine): STALLED under loss %.2f; root coverage %d/%d cells\n",
				*loss, res.RootCoverage, grid.N())
			return
		}
		final = res.Final
		fmt.Printf("labeling (goroutine engine): %d delivered, %d dropped, %d rule firings\n",
			res.Delivered, res.Dropped, res.RuleFirings)
		fmt.Printf("energy: total %d\n", ledger.Metrics().Total)
	}

	truth := regions.Label(m)
	fmt.Printf("\nregions found: %d (ground truth %d)\n", final.Count(), truth.Count)
	for _, r := range final.Regions() {
		fmt.Printf("  region %3d: %3d cells, bbox cols %d-%d rows %d-%d\n",
			r.Label, r.Cells, r.Box.MinCol, r.Box.MaxCol, r.Box.MinRow, r.Box.MaxRow)
	}
}

// churnHorizon is the window the physical engine's churn flags cover:
// long enough for several disturbance batches and interleaved labeling
// rounds (matching the E23 sweep's horizon).
const churnHorizon = sim.Time(400)

// dutyFlag parses -duty-cycle's period:on, which wants 0 < on < period;
// an empty flag is 0:0, no duty cycle.
func dutyFlag(duty string) (period, on int64) {
	if duty == "" {
		return 0, 0
	}
	if _, err := fmt.Sscanf(duty, "%d:%d", &period, &on); err != nil {
		log.Fatalf("wsnsim: -duty-cycle wants period:on, got %q", duty)
	}
	if on < 1 || on >= period {
		log.Fatalf("wsnsim: -duty-cycle %s wants 0 < on < period", duty)
	}
	return period, on
}

// exportTrace writes the tracer's events as JSONL and reports the export.
func exportTrace(path string, tr *trace.Tracer) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("wsnsim: %v", err)
	}
	defer f.Close()
	if err := tr.WriteJSONL(f); err != nil {
		log.Fatalf("wsnsim: %v", err)
	}
	fmt.Printf("\ntrace: %d events exported to %s\n", len(tr.Events()), path)
}
