package experiments

import (
	"math/rand"

	"wsnva/internal/cost"
	"wsnva/internal/fault"
	"wsnva/internal/sim"
	"wsnva/internal/stats"
	"wsnva/internal/synth"
	"wsnva/internal/trace"
	"wsnva/internal/varch"
)

// The failure-sweep family (E17, E18) measures the fault-injection
// subsystem end to end: how the synthesized labeling application degrades
// under fail-stop crashes, and what the stop-and-wait ARQ buys back under
// message loss. Both run on the DES fault driver (synth.RunWithFaults), so
// every row is byte-deterministic: crash schedules are pure functions of
// (n, fraction, seed) with nested prefixes — raising the fraction only adds
// victims, never moves existing ones — and loss draws come from a fixed
// per-row seed.

// crashWindow is the time span [1, crashWindow] over which random crash
// schedules spread their fail-stop times — early enough to hit every level
// of the aggregation tree on the swept grids.
const crashWindow = sim.Time(40)

// faultRound runs one fault-injected labeling round and returns the result
// alongside the machine it ran on (for its ledger and counters). tr, when
// non-nil, observes the machine, its ledger, and the battery bank (if the
// config carries one).
func faultRound(side int, mapSeed int64, cfg synth.FaultConfig, tr *trace.Tracer) (*synth.FaultResult, *varch.Machine) {
	m := blobMapFor(side, mapSeed)
	h := varch.MustHierarchy(m.Grid)
	k := sim.New()
	vm := varch.NewMachine(h, k, cost.NewLedger(cost.NewUniform(), m.Grid.N()))
	if tr != nil {
		vm.SetTracer(tr)
		vm.Ledger().SetTracer(tr, k.Now)
		if cfg.Battery != nil {
			cfg.Battery.SetTracer(tr, k.Now)
		}
	}
	if cfg.LevelDeadline == 0 {
		cfg.LevelDeadline = synth.DefaultLevelDeadline(vm)
	}
	res, err := synth.RunWithFaults(vm, m, cfg)
	if err != nil {
		panic(err)
	}
	return res, vm
}

// bernoulli returns a Bernoulli loss channel at rate p over a fresh rand
// source seeded with seed.
func bernoulli(p float64, seed int64) fault.Channel {
	return fault.NewBernoulli(p, rand.New(rand.NewSource(seed)))
}

// E17FailureSweep sweeps the crash fraction and reports how the labeling
// round degrades: coverage (fraction of the map the exfiltrated summary
// accounts for), forced promotions and leader failovers (the watchdog
// machinery's work), and total energy. Nested crash sets make coverage
// non-increasing down each side's block of rows.
func E17FailureSweep(o Options) *stats.Table {
	tab := stats.NewTable("E17: labeling under fail-stop crashes (watchdog failover, seed-derived schedules)",
		"side", "crash frac", "crashed", "coverage", "completion", "forced promos", "failovers", "dead drops", "energy")
	ss := sides(o, 8, 16)
	fracs := []float64{0, 0.05, 0.1, 0.2, 0.3}
	sweep(o, tab, len(ss)*len(fracs), func(i int) rows {
		side, frac := ss[i/len(fracs)], fracs[i%len(fracs)]
		n := side * side
		res, vm := faultRound(side, 7, synth.FaultConfig{
			Schedule: fault.MustRandom(n, frac, crashWindow, 1000+int64(side)),
		}, o.Trace)
		completion := any("stalled")
		if res.Final != nil {
			completion = res.Completion
		}
		return rows{{side, frac, res.Crashed, res.Coverage, completion,
			res.ForcedPromotions, res.LeaderFailovers, res.Stats.DeadDrops,
			vm.Ledger().Total()}}
	})
	return tab
}

// E18ReliableDelivery sweeps message loss with the ARQ off and on, under a
// fixed 10% crash fraction: the reliability layer should hold delivery rate
// and coverage near the loss-free values at the price of retransmission and
// acknowledgment energy.
func E18ReliableDelivery(o Options) *stats.Table {
	tab := stats.NewTable("E18: stop-and-wait ARQ under loss + 10% crashes (retries 3, capped backoff)",
		"side", "loss", "arq", "delivered", "lost", "retrans", "acks", "delivery rate", "coverage", "energy")
	ss := sides(o, 8, 16)
	losses := []float64{0, 0.05, 0.1, 0.2}
	arqs := []fault.Reliability{{}, fault.DefaultReliability()}
	sweep(o, tab, len(ss)*len(losses)*len(arqs), func(i int) rows {
		side := ss[i/(len(losses)*len(arqs))]
		loss := losses[(i/len(arqs))%len(losses)]
		rel := arqs[i%len(arqs)]
		n := side * side
		res, vm := faultRound(side, 7, synth.FaultConfig{
			Schedule:    fault.MustRandom(n, 0.1, crashWindow, 1000+int64(side)),
			Channel:     bernoulli(loss, 33+int64(side)),
			Reliability: rel,
		}, o.Trace)
		msgs, _ := vm.Stats()
		arqLabel := "off"
		if rel.Enabled() {
			arqLabel = "on"
		}
		return rows{{side, loss, arqLabel, res.Stats.Delivered, res.Stats.Lost,
			res.Stats.Retransmissions, res.Stats.Acks,
			stats.Ratio(float64(res.Stats.Delivered), float64(msgs)),
			res.Coverage, vm.Ledger().Total()}}
	})
	return tab
}
