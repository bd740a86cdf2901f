// Network-lifetime missions on the physical machine: the same labeling
// round repeated on one continuous kernel and one cumulative ledger, with
// a battery bank metering every charge, so nodes die *because* of the work
// they do — leader duty, relay duty, election traffic — and the paper's
// lifetime metric (Section 2) becomes something the simulation exhibits
// rather than a division performed afterwards. With a Rotator attached,
// executor roles move to the highest-residual cell member between rounds
// (the LEACH-style rotation Section 5.2 sketches); the E19 sweep measures
// what that buys against static leaders.
package emul

import (
	"fmt"

	"wsnva/internal/battery"
	"wsnva/internal/binding"
	"wsnva/internal/cost"
	"wsnva/internal/field"
	"wsnva/internal/sim"
	"wsnva/internal/synth"
)

// LifetimeConfig parameterizes a depletion mission.
type LifetimeConfig struct {
	// Map is the field every round labels.
	Map *field.BinaryMap
	// Bank holds the per-node budgets. It is attached to the medium's
	// ledger for the duration of the mission (setup traffic that already
	// happened — emulation tables, the initial election — is sunk cost and
	// does not count against the budgets).
	Bank *battery.Bank
	// Rotator, if non-nil, rotates cell executors onto the
	// highest-residual alive member every RotateEvery rounds. It must hold
	// the same Binding the machine executes on. Nil keeps the initially
	// elected leaders until they die.
	Rotator *binding.Rotator
	// RotateEvery is the rotation period in rounds; 0 means every round.
	RotateEvery int
	// LeaderDuty is the per-round standing charge of holding an executor
	// role, in Rx cost-model units: the cell's head keeps its receive window
	// open for the whole round to serve its virtual process, where followers
	// may sleep between their own transfers. This energy asymmetry is what
	// makes rotating the role worthwhile at all (the LEACH premise); zero
	// models free leadership, under which rotation can only tie static
	// bindings, never beat them. Charged through the battery meter, so duty
	// alone can deplete an executor between rounds.
	LeaderDuty int64
	// MaxRounds bounds the mission.
	MaxRounds int
}

// LifetimeOutcome reports when and how the network degraded.
type LifetimeOutcome struct {
	// Rounds is the number of rounds that completed with a full
	// exfiltration — the mission lifetime under the "network is alive while
	// it delivers its product" definition.
	Rounds int
	// FirstDeathRound is the round during which the first node depleted
	// (-1: nobody died), and FirstDeathTime its exact simulated time.
	FirstDeathRound int
	FirstDeathTime  sim.Time
	// RootDeathRound is the round after which the root cell had no alive
	// member left (-1: the root outlived the mission).
	RootDeathRound int
	// CoverageAtFirstDeath is the labeling coverage of the first-death
	// round; FinalCoverage that of the last executed round.
	CoverageAtFirstDeath float64
	FinalCoverage        float64
	// Depleted counts battery deaths over the mission.
	Depleted int
	// DistinctLeaders counts the physical nodes that ever held an executor
	// role, and LeaderChanges the rebindings rotation performed.
	DistinctLeaders int
	LeaderChanges   int
}

// RunLifetime drives labeling rounds until the network can no longer
// exfiltrate a full summary, the root cell dies, or MaxRounds pass.
func (m *Machine) RunLifetime(cfg LifetimeConfig) (*LifetimeOutcome, error) {
	if cfg.Map.Grid != m.hier.Grid {
		return nil, fmt.Errorf("emul: map grid and hierarchy grid differ")
	}
	if cfg.Bank == nil {
		return nil, fmt.Errorf("emul: lifetime mission needs a battery bank")
	}
	if cfg.Bank.N() != m.med.Network().N() {
		return nil, fmt.Errorf("emul: bank tracks %d nodes, network has %d", cfg.Bank.N(), m.med.Network().N())
	}
	if cfg.MaxRounds <= 0 {
		return nil, fmt.Errorf("emul: MaxRounds must be positive, got %d", cfg.MaxRounds)
	}
	out := &LifetimeOutcome{FirstDeathRound: -1, RootDeathRound: -1}
	led := m.med.Ledger()
	led.SetMeter(cfg.Bank)
	defer led.SetMeter(nil)
	sawDeath := false
	cfg.Bank.OnDeplete(func(id int) {
		if !sawDeath {
			sawDeath = true
			out.FirstDeathTime = m.Kernel().Now()
		}
		// Fail-stop at the depleting charge's simulated time: radio off,
		// routing tables informed, executor role promoted, relay trees
		// rebuilt — the full Kill path. The physical layer schedules no
		// owned events, so the radio's alive gate is the whole silence.
		m.Kill(id)
	})

	g := m.hier.Grid
	n := g.N()
	rootMembers := m.members[g.Index(m.hier.Root())]
	rootAlive := func() bool {
		for _, id := range rootMembers {
			if m.med.Alive(id) {
				return true
			}
		}
		return false
	}
	prog := synth.LabelingProgram(m.hier, cfg.Map)
	leadersSeen := make(map[int]bool)
	every := cfg.RotateEvery
	if every <= 0 {
		every = 1
	}
	for round := 1; round <= cfg.MaxRounds; round++ {
		m.vphase(fmt.Sprintf("lifetime-round:%d", round))
		if cfg.LeaderDuty > 0 {
			// Grid order, and re-reading the binding per cell: a duty charge
			// can deplete the executor, whose Kill promotes a successor in
			// this same map — the successor starts paying next round.
			for _, c := range g.Coords() {
				if id, ok := m.bnd.Leaders[c]; ok && m.med.Alive(id) {
					led.Charge(id, cost.Rx, cfg.LeaderDuty)
				}
			}
		}
		for _, id := range m.bnd.Leaders {
			leadersSeen[id] = true
		}
		res, _, err := RunProgram(m, prog)
		if err != nil {
			return nil, err
		}
		cov := 0.0
		if res.Final != nil {
			cov = float64(res.Final.CoveredCells()) / float64(n)
		}
		out.FinalCoverage = cov
		if out.FirstDeathRound == -1 && cfg.Bank.Deaths() > 0 {
			out.FirstDeathRound = round
			out.CoverageAtFirstDeath = cov
		}
		if res.Final == nil {
			break // the mission product stopped arriving: lifetime is over
		}
		out.Rounds++
		if !rootAlive() {
			out.RootDeathRound = round
			break
		}
		if cfg.Rotator != nil && round%every == 0 {
			changed := cfg.Rotator.RotateResidual(m.med.Alive)
			out.LeaderChanges += len(changed)
			for _, cell := range changed {
				m.rebuildCell(cell)
			}
			// Rotation traffic can itself deplete nodes; a mission that
			// loses its root to the election ends here like any other death.
			if !rootAlive() {
				out.RootDeathRound = round
				break
			}
		}
	}
	out.Depleted = cfg.Bank.Deaths()
	out.DistinctLeaders = len(leadersSeen)
	return out, nil
}
