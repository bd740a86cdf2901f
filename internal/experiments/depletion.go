package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"wsnva/internal/battery"
	"wsnva/internal/cost"
	"wsnva/internal/emul"
	"wsnva/internal/fault"
	"wsnva/internal/field"
	"wsnva/internal/stats"
	"wsnva/internal/synth"
	"wsnva/internal/trace"
)

// The depletion family (E19, E20) measures the battery subsystem end to
// end: nodes die because of the energy they spend, not because a schedule
// said so. E19 runs whole missions on the physical stack and compares
// static executors against residual-energy rotation — the paper's
// Section 5.2 rotation remark turned into a lifetime measurement. E20 runs
// single DES rounds and shows the flip side of reliability: under loss,
// ARQ retransmissions buy delivery with battery, so the same budget
// depletes more nodes sooner. Every row is byte-deterministic.

// e19Budgets is the per-node budget sweep for the lifetime missions,
// calibrated so the hottest executor (≈40 energy units per round on the
// 4×4/5-per-cell stack) dies within a bounded mission at every point.
var e19Budgets = []cost.Energy{200, 400, 800, 1600}

// e19MaxRounds bounds a mission; generous against the largest budget.
// e19RotateEvery is the rotation epoch in rounds (LEACH-style periodic
// re-election rather than a per-round one, so the election's own radio
// traffic stays small next to the duty it redistributes).
// e19LeaderDuty is the per-round standing charge of the executor role (see
// emul.LifetimeConfig.LeaderDuty), sized to dominate a follower's per-round
// traffic the way a cluster head's always-on receiver dominates a sleeping
// member's radio bill.
const (
	e19MaxRounds   = 400
	e19RotateEvery = 4
	e19LeaderDuty  = 60
)

// lifetimeMission builds the standard physical stack (4×4 grid, 5 nodes
// per cell, fixed seeds — setup traffic does not count against budgets)
// and runs one depletion mission on it. tr, when non-nil, observes the
// medium, the ledger, the bank, and the virtual plane — but only from the
// mission onward (the tracer is attached after setup, matching the
// budgets' sunk-cost convention).
func lifetimeMission(budget cost.Energy, rotate bool, tr *trace.Tracer) (*emul.LifetimeOutcome, *cost.Ledger) {
	// Both modes run the identical initial election, so their pre-mission
	// state matches charge for charge; they diverge only in what happens
	// between rounds.
	nw, g, s := physSetup(4, 5, 12.5, 11)
	pm, rot := assemble(s, rotate)
	fmap := field.Threshold(field.RandomBlobs(2, g.Terrain,
		g.Terrain.Width()/6, g.Terrain.Width()/4, rand.New(rand.NewSource(21))), g, 0.5, 0)
	bank := battery.Uniform(nw.N(), budget)
	if tr != nil {
		pm.SetTracer(tr)
		s.SetTracer(tr)
		bank.SetTracer(tr, s.Kernel().Now)
	}
	out, err := pm.RunLifetime(emul.LifetimeConfig{
		Map:     fmap,
		Bank:    bank,
		Rotator: rot,
		// Rotating every round would spend more on elections (one broadcast
		// plus k-1 receptions per member) than the leveling recovers; a
		// 4-round epoch amortizes the exchange below the noise floor.
		RotateEvery: e19RotateEvery,
		LeaderDuty:  e19LeaderDuty,
		MaxRounds:   e19MaxRounds,
	})
	if err != nil {
		panic(err)
	}
	return out, s.Ledger()
}

// E19NetworkLifetime sweeps the per-node budget for static executors and
// residual-energy rotation, reporting when the product stops arriving. The
// trends to verify: lifetime (rounds, first death) is monotone in budget
// within a mode, and rotation's first death is never earlier than the
// static mode's at the same budget — the rotation-extends-lifetime claim
// of the LEACH lineage, emerging from the cost model alone.
func E19NetworkLifetime(o Options) *stats.Table {
	tab := stats.NewTable("E19: network lifetime vs battery budget (4x4 grid, 5 nodes/cell, static vs rotation)",
		"budget", "mode", "rounds", "first death rd", "first death t", "root death rd",
		"cov@death", "final cov", "depleted", "distinct leaders", "rebinds")
	budgets := e19Budgets
	if o.Quick {
		// The upper half of the sweep: budgets large enough for rotation
		// epochs to fire before the first death, where the lifetime gain is
		// strict rather than a tie — the rows the golden file should pin.
		budgets = budgets[2:]
	}
	modes := []bool{false, true}
	sweep(o, tab, len(budgets)*len(modes), func(i int) rows {
		budget := budgets[i/len(modes)]
		rotate := modes[i%len(modes)] // static row first, rotation second
		out, _ := lifetimeMission(budget, rotate, o.Trace)
		mode := "static"
		if rotate {
			mode = "rotate"
		}
		return rows{{int64(budget), mode, out.Rounds, out.FirstDeathRound, int64(out.FirstDeathTime),
			out.RootDeathRound, out.CoverageAtFirstDeath, out.FinalCoverage,
			out.Depleted, out.DistinctLeaders, out.LeaderChanges}}
	})
	return tab
}

// e20Channel is one loss model of the E20 sweep.
type e20Channel struct {
	name  string
	loss  float64 // Bernoulli rate; ignored when burst is non-nil
	burst *fault.GilbertElliott
}

// channel starts one round's loss channel: the burst chain seeded 97, or
// the Bernoulli coin seeded 41.
func (c e20Channel) channel() fault.Channel {
	if c.burst != nil {
		return c.burst.Process(97)
	}
	return bernoulli(c.loss, 41)
}

// e20Channels pairs Bernoulli points against a Gilbert–Elliott burst
// channel of comparable stationary rate, so the table separates "how much
// is lost" from "how the losses cluster".
func e20Channels() []e20Channel {
	burst := fault.DefaultBurst()
	return []e20Channel{
		{"bern", 0.10, nil},
		{"bern", 0.20, nil},
		{"bern", 0.30, nil},
		{"burst", burst.MeanLoss(), &burst},
	}
}

// E20DepletionARQ shows reliability's energy bill coming due: one DES
// labeling round per row on the 8×8 grid, no scheduled crashes — every
// death is a depletion. At a fixed budget, turning the ARQ on converts
// losses into retransmissions and acknowledgments, which drains batteries
// faster: depleted counts rise (and first depletion moves earlier) with
// the loss rate, and the bursty channel is harsher than the Bernoulli
// channel of similar mean rate because retries land inside the same fade.
func E20DepletionARQ(o Options) *stats.Table {
	tab := stats.NewTable("E20: ARQ under loss accelerates depletion (8x8 grid, deaths from batteries only)",
		"channel", "loss", "arq", "budget", "depleted", "first depl t", "delivered",
		"lost", "retrans", "coverage", "energy")
	chans := e20Channels()
	budgets := []cost.Energy{100, 200}
	if o.Quick {
		chans = []e20Channel{chans[1], chans[3]}
		budgets = budgets[:1]
	}
	arqs := []fault.Reliability{{}, fault.DefaultReliability()}
	sweep(o, tab, len(chans)*len(arqs)*len(budgets), func(i int) rows {
		ch := chans[i/(len(arqs)*len(budgets))]
		rel := arqs[(i/len(budgets))%len(arqs)]
		budget := budgets[i%len(budgets)]
		n := 8 * 8
		res, vm := faultRound(8, 7, synth.FaultConfig{
			Channel:     ch.channel(),
			Reliability: rel,
			Battery:     battery.Uniform(n, budget),
		}, o.Trace)
		arqLabel := "off"
		if rel.Enabled() {
			arqLabel = "on"
		}
		firstDepl := any("-")
		if res.Depleted > 0 {
			firstDepl = int64(res.FirstDepletion)
		}
		return rows{{ch.name, math.Round(ch.loss*1000) / 1000, arqLabel, int64(budget),
			res.Depleted, firstDepl, res.Stats.Delivered, res.Stats.Lost,
			res.Stats.Retransmissions, res.Coverage, vm.Ledger().Total()}}
	})
	return tab
}

// depletionSoakRound is one randomized-but-seeded invariant check shared
// by the soak test and make soak: a DES round with batteries, loss, and
// ARQ, asserting the closed loop's safety properties (dead nodes frozen,
// ledger/bank agreement, depletion count consistency).
func depletionSoakRound(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	budget := cost.Energy(40 + rng.Int63n(200))
	loss := rng.Float64() * 0.3
	rel := fault.Reliability{}
	if rng.Intn(2) == 1 {
		rel = fault.DefaultReliability()
	}
	n := 8 * 8
	bank := battery.Uniform(n, budget)
	res, vm := faultRound(8, 7, synth.FaultConfig{
		Channel:     bernoulli(loss, seed*3),
		Reliability: rel,
		Battery:     bank,
	}, nil)
	if res.Depleted != bank.Deaths() {
		return fmt.Errorf("seed %d: result counted %d depletions, bank %d", seed, res.Depleted, bank.Deaths())
	}
	led := vm.Ledger()
	for node := 0; node < n; node++ {
		if led.Energy(node) != bank.Drained(node) {
			return fmt.Errorf("seed %d: node %d ledger %d != bank drain %d (a charge bypassed the meter or landed after death)",
				seed, node, led.Energy(node), bank.Drained(node))
		}
		if !bank.Depleted(node) && bank.Drained(node) > budget {
			return fmt.Errorf("seed %d: node %d over budget (%d > %d) but not depleted", seed, node, bank.Drained(node), budget)
		}
	}
	return nil
}
