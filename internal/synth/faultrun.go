// Fault-tolerant execution of the synthesized labeling program. The plain
// driver (RunOnMachine) assumes every node survives and every message
// lands; under crashes the Figure 4 protocol deadlocks, because a leader
// waits forever for its 3-message quorum. RunWithFaults adds the two
// mechanisms a deployed WSN would use — both deterministic, so sweeps are
// reproducible:
//
//   - leader failover (routing level): SendToLeader resolves to the acting
//     leader, the first alive member of the block in row-major grid order.
//     Every follower can evaluate the same rule locally after a timeout, so
//     the redirected quorum traffic re-converges without any agreement
//     protocol. This is varch.Machine.ActingLeaderAt.
//
//   - per-level deadlines (protocol level): the acting level-k leader of
//     every block carries a watchdog at k·LevelDeadline. If the quorum
//     never arrived, the watchdog hoists whatever partial sub-graphs the
//     node holds at levels ≤ k and ships them up anyway. The root deadline
//     forces exfiltration of a partial summary — graceful degradation
//     measured as labeling coverage instead of an all-or-nothing round.
package synth

import (
	"fmt"

	"wsnva/internal/battery"
	"wsnva/internal/fault"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/program"
	"wsnva/internal/regions"
	"wsnva/internal/sim"
	"wsnva/internal/trace"
	"wsnva/internal/varch"
)

// FaultConfig parameterizes one fault-injected labeling round.
type FaultConfig struct {
	// Schedule lists the fail-stop crashes to inject.
	Schedule fault.Schedule
	// Channel draws every transmission attempt's loss (nil: lossless):
	// a fault.NewBernoulli coin or a GilbertElliott.Process burst chain.
	Channel fault.Channel
	// Reliability arms the ARQ policy on the machine (zero value: off).
	Reliability fault.Reliability
	// Battery, if non-nil, meters every ledger charge and fail-stops nodes
	// whose cumulative spend crosses their budget — depletion deaths on top
	// of (or instead of) the scheduled crashes.
	Battery *battery.Bank
	// LevelDeadline is the per-level watchdog period: the acting level-k
	// leader force-promotes at k·LevelDeadline. It must comfortably exceed
	// the natural per-level latency, or the watchdogs will truncate healthy
	// rounds. Zero disables watchdogs — under crashes the round then stalls
	// and the result reports whatever was exfiltrated (usually nothing).
	LevelDeadline sim.Time
}

// DefaultLevelDeadline returns a watchdog period that dominates the natural
// per-level latency of a healthy round on vm's grid, with a wide margin, so
// a zero-fault round under watchdogs is indistinguishable from a plain one.
func DefaultLevelDeadline(vm *varch.Machine) sim.Time {
	side := vm.Grid().Cols
	return sim.Time(32 * side * side)
}

// FaultResult is the outcome of a fault-injected round.
type FaultResult struct {
	Final       *regions.Summary // first exfiltrated summary (nil: stalled)
	Completion  sim.Time         // kernel time of that exfiltration
	ExfilCoord  geom.Coord       // node that exfiltrated (acting root)
	RuleFirings int64
	// Coverage is the fraction of grid cells the exfiltrated summary
	// accounts for: 1 means the full map was labeled despite the faults.
	Coverage float64
	// Crashed is the number of nodes the schedule killed.
	Crashed int
	// ForcedPromotions counts watchdogs that actually hoisted and shipped
	// partial data; LeaderFailovers counts watchdog firings that found the
	// static leader dead and acted through a promoted follower.
	ForcedPromotions int64
	LeaderFailovers  int64
	// Depleted counts battery deaths and FirstDepletion their earliest
	// simulated time (0 if none) — distinct from Crashed, which counts only
	// the externally scheduled fail-stops.
	Depleted       int
	FirstDepletion sim.Time
	Stats          varch.FaultStats
}

// RunWithFaults executes one labeling round on vm under cfg's fault load
// and returns the (possibly partial) outcome. The round is byte-
// deterministic: same machine, map, and config always produce the same
// result.
func RunWithFaults(vm *varch.Machine, m *field.BinaryMap, cfg FaultConfig) (*FaultResult, error) {
	h := vm.Hier
	g := h.Grid
	if m.Grid != g {
		return nil, fmt.Errorf("synth: map grid and machine grid differ")
	}
	if b := cfg.Battery; b != nil && b.N() != g.N() {
		return nil, fmt.Errorf("synth: battery bank tracks %d nodes, grid has %d", b.N(), g.N())
	}
	vm.SetChannel(cfg.Channel)
	vm.SetReliability(cfg.Reliability)

	res := &FaultResult{Crashed: len(cfg.Schedule)}
	// Unlike the plain driver, any acting root may exfiltrate, and only the
	// first result counts (a forced root watchdog may fire after a natural
	// finish).
	insts := onMachine(vm, LabelingProgram(h, m), func(c geom.Coord, result any) {
		if res.Final != nil {
			return
		}
		res.Final = result.(*regions.Summary)
		res.Completion = vm.Kernel().Now()
		res.ExfilCoord = c
		emitExfiltrate(vm, c)
	})
	wireTraceHooks(vm, insts)

	// Crashes are armed first, so each fires before any same-instant event
	// the round schedules. Scheduled crashes and battery depletions share
	// the machine's one fail-stop, vm.Kill: a depleting charge kills its
	// node at the operation's simulated time.
	cfg.Schedule.Arm(vm.Kernel(), g.N(), vm.Kill)
	if bank := cfg.Battery; bank != nil {
		vm.Ledger().SetMeter(bank)
		bank.OnDeplete(func(node int) {
			res.Depleted++
			if res.Depleted == 1 {
				res.FirstDepletion = vm.Kernel().Now()
			}
			vm.Kill(node)
		})
	}

	if cfg.LevelDeadline > 0 {
		for k := 1; k <= h.Levels; k++ {
			k := k
			deadline := sim.Time(k) * cfg.LevelDeadline
			for _, leader := range h.Leaders(k) {
				leader := leader
				// The watchdog is the block's collective responsibility, not
				// any single node's, so it is unowned: crashes never cancel
				// it, and whoever is acting leader at the deadline handles it.
				vm.Kernel().At(deadline, func() {
					watchdogFire(vm, h, insts, res, leader, k)
				})
			}
		}
	}

	phase(vm, "fault-labeling:start")
	startAll(insts)
	vm.Kernel().Run()
	phase(vm, "fault-labeling:end")
	res.RuleFirings, _ = program.Fired(insts)
	if res.Final != nil {
		res.Coverage = float64(res.Final.CoveredCells()) / float64(g.N())
	}
	res.Stats = vm.FaultStats()
	return res, nil
}

// watchdogFire enforces the level-k deadline for one block: if the acting
// leader still holds un-shipped sub-graphs at levels ≤ k, they are hoisted
// into level k and transmitted — partial data beats no data once the
// deadline passes. Late arrivals after the deadline merge into the node's
// state but are never shipped (their quorum slot is disarmed), the standard
// deadline-protocol trade.
func watchdogFire(vm *varch.Machine, h *varch.Hierarchy, insts []program.Instance[LabelState], res *FaultResult, leader geom.Coord, k int) {
	g := h.Grid
	acting, ok := h.ActingLeader(leader, k, vm.Alive)
	if !ok {
		return // the whole block is dead; its data died with it
	}
	if k == h.Levels && res.Final != nil {
		return // the round already exfiltrated; nothing to force
	}
	inst := &insts[g.Index(acting)]
	s := inst.State
	if s.RecLevel > k {
		return // the block finished level k naturally
	}
	sg := s.SubGraph
	for j := 0; j < k; j++ {
		if sg[j] == nil {
			continue
		}
		if sg[k] == nil {
			sg[k] = sg[j]
		} else {
			sg[k].Merge(sg[j])
		}
		sg[j] = nil
	}
	if sg[k] == nil {
		return // nothing reached this block's level; nothing to ship
	}
	for j := 0; j <= k; j++ {
		s.MsgsRecv[j] = -1 // disarm the quorum rule at and below the deadline level
	}
	s.RecLevel = k
	s.Done = false
	s.Transmit = true
	res.ForcedPromotions++
	vm.Tracer().EmitCell(vm.Kernel().Now(), trace.Protocol, acting, g.Index(acting), trace.NoCell, k, 0, "watchdog promote")
	if acting != leader {
		res.LeaderFailovers++
	}
	inst.RunToQuiescence()
}
