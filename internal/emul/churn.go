// Topology churn on the physical machine: timed arrivals, departures,
// and duty-cycle sleep/wake applied as first-class simulation events,
// each followed by *incremental* repair — only the cells and
// neighborhoods the disturbance touched re-converge, so repair cost
// scales with the disturbance, never the network (the proportional-
// repair property the tests pin at two grid sizes).
//
// Every disturbance batch leaves a typed audit trail on the trace:
// a Churn marker (Bytes = batch size), the radio's Sleep/Wake events,
// one Repair event per routing-table broadcast the repair triggered
// (Level = the sender's cell distance from the disturbed cells), and —
// once the recovery predicate holds — a Recover event naming the
// disturbance instant it answers (Bytes). trace/check replays this
// trail against the bounded-recovery and repair-locality invariants.
package emul

import (
	"fmt"

	"wsnva/internal/churn"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/sim"
	"wsnva/internal/synth"
	"wsnva/internal/trace"
)

// Suspend puts node id to sleep: its radio is silenced reversibly, the
// routing layer treats it as down until repair re-teaches the
// neighborhood, and if it held its cell's executor role the first up
// member in deployment order is promoted. A no-op for a node that is
// dead or already asleep.
func (m *Machine) Suspend(id int) {
	if !m.up(id) {
		return
	}
	m.med.Suspend(id)
	m.proto.Kill(id)
	m.repairRoles(m.proto.CellOf(id))
}

// Resume wakes node id: the radio comes back, the routing layer marks it
// live again (its table is re-seeded by the caller's RepairAround), and
// if its cell currently has no up leader it takes the role. A no-op for
// a node that is dead or was never suspended.
func (m *Machine) Resume(id int) {
	if !m.med.Alive(id) || !m.med.Suspended(id) {
		return
	}
	m.med.Resume(id)
	m.proto.Revive(id)
	m.repairRoles(m.proto.CellOf(id))
}

// ChurnConfig parameterizes a churn mission.
type ChurnConfig struct {
	// Schedule is the churn to inject, validated against the deployment.
	Schedule churn.Schedule
	// Map is the field the interleaved labeling rounds label.
	Map *field.BinaryMap
	// RoundEvery runs a labeling round after every RoundEvery-th
	// disturbance batch (0 = only the final round), proving the repaired
	// network still computes between disturbances.
	RoundEvery int
}

// Disturbance is the audit record of one equal-time churn batch.
type Disturbance struct {
	At         sim.Time // disturbance instant
	Ops        int      // events in the batch
	Flipped    int      // events that changed a node's state
	Cells      int      // cells the repair touched
	RepairMsgs int64    // routing-table broadcasts the repair triggered
	Latency    sim.Time // disturbance instant -> repair quiescence
	Recovered  bool     // recovery predicate held after repair
}

// ChurnOutcome reports a churn mission.
type ChurnOutcome struct {
	Disturbances []Disturbance
	// RepairMsgs totals repair broadcasts over the mission; MaxLatency
	// is the slowest re-convergence; AllRecovered is the conjunction of
	// every batch's recovery predicate.
	RepairMsgs   int64
	MaxLatency   sim.Time
	AllRecovered bool
	// Suspends/Resumes count duty-cycle flips applied; Departures and
	// Arrivals the long-lived ones.
	Suspends, Resumes    int
	Departures, Arrivals int
	// Rounds counts labeling rounds executed; Final and FinalCoverage
	// describe the last one.
	Rounds        int
	Final         *Result
	FinalCoverage float64
}

// RunChurn replays a churn schedule against the machine. Each
// equal-time batch advances the kernel to its instant, applies every
// transition, repairs the touched neighborhoods incrementally
// (vtopo.RepairAround plus executor failover), verifies the recovery
// predicate — routing consistency, local completeness, and cell-leader
// coverage over the touched cells — and records cost and latency.
// Labeling rounds interleave per ChurnConfig.RoundEvery, and one final
// round always runs; with an empty schedule the mission is exactly that
// single round, byte-identical to RunLabeling.
func (m *Machine) RunChurn(cfg ChurnConfig) (*ChurnOutcome, error) {
	if cfg.Map == nil {
		return nil, fmt.Errorf("emul: churn mission needs a map")
	}
	if cfg.Map.Grid != m.hier.Grid {
		return nil, fmt.Errorf("emul: map grid and hierarchy grid differ")
	}
	n := m.med.Network().N()
	if err := cfg.Schedule.Validate(n); err != nil {
		return nil, err
	}
	out := &ChurnOutcome{AllRecovered: true}
	k := m.Kernel()
	prog := synth.LabelingProgram(m.hier, cfg.Map)
	round := func() error {
		res, _, err := RunProgram(m, prog)
		if err != nil {
			return err
		}
		out.Rounds++
		out.Final = res
		out.FinalCoverage = 0
		if res.Final != nil {
			out.FinalCoverage = float64(res.Final.CoveredCells()) / float64(m.hier.Grid.N())
		}
		return nil
	}

	batches := cfg.Schedule.Batches()
	for bi, b := range batches {
		// Advance the clock to the disturbance instant (a batch the
		// previous round overran applies at the current time instead —
		// simulated time never runs backwards).
		at := b.At
		if now := k.Now(); at < now {
			at = now
		}
		k.At(at, func() {})
		k.Run()
		m.tracer.EmitRun(k.Now(), trace.Churn, int64(len(b.Events)), "disturbance")
		d := Disturbance{At: at, Ops: len(b.Events)}
		var disturbed []int
		for _, e := range b.Events {
			if !m.applyChurn(e, out) {
				continue
			}
			d.Flipped++
			disturbed = append(disturbed, e.Node)
		}
		m.repairDisturbance(disturbed, &d)
		d.Latency = k.Now() - at
		if d.Recovered {
			m.tracer.EmitRun(k.Now(), trace.Recover, int64(at), "recovered")
		} else {
			out.AllRecovered = false
		}
		out.RepairMsgs += d.RepairMsgs
		if d.Latency > out.MaxLatency {
			out.MaxLatency = d.Latency
		}
		out.Disturbances = append(out.Disturbances, d)
		if cfg.RoundEvery > 0 && (bi+1)%cfg.RoundEvery == 0 {
			if err := round(); err != nil {
				return nil, err
			}
		}
	}
	if err := round(); err != nil {
		return nil, err
	}
	return out, nil
}

// applyChurn applies one transition, reporting whether it changed the
// node's state (a wake of an awake node, or a sleep of a dead one, is a
// no-op and triggers no repair).
func (m *Machine) applyChurn(e churn.Event, out *ChurnOutcome) bool {
	switch e.Op {
	case churn.Sleep, churn.Depart:
		if !m.up(e.Node) {
			return false
		}
		m.Suspend(e.Node)
		if e.Op == churn.Sleep {
			out.Suspends++
		} else {
			out.Departures++
		}
	case churn.Wake, churn.Arrive:
		if !m.med.Alive(e.Node) || !m.med.Suspended(e.Node) {
			return false
		}
		m.Resume(e.Node)
		if e.Op == churn.Wake {
			out.Resumes++
		} else {
			out.Arrivals++
		}
	default:
		return false
	}
	return true
}

// repairDisturbance re-converges the routing tables around the flipped
// nodes, emitting one Repair trace event per broadcast (tagged with the
// sender's cell distance from the disturbed cells) and evaluating the
// recovery predicate over the touched cells.
func (m *Machine) repairDisturbance(disturbed []int, d *Disturbance) {
	if len(disturbed) == 0 {
		d.Recovered = true
		return
	}
	distCells := make(map[geom.Coord]bool, len(disturbed))
	for _, id := range disturbed {
		distCells[m.proto.CellOf(id)] = true
	}
	cellDist := func(id int) int {
		c := m.proto.CellOf(id)
		best := -1
		for dc := range distCells {
			dx, dy := c.Col-dc.Col, c.Row-dc.Row
			if dx < 0 {
				dx = -dx
			}
			if dy < 0 {
				dy = -dy
			}
			cheb := dx
			if dy > cheb {
				cheb = dy
			}
			if best < 0 || cheb < best {
				best = cheb
			}
		}
		return best
	}
	m.proto.SetOnBroadcast(func(id int) {
		d.RepairMsgs++
		if m.tracer != nil {
			m.tracer.EmitNode(m.Kernel().Now(), trace.Repair, id, -1, cellDist(id), 0, "table rebroadcast")
		}
	})
	rep := m.proto.RepairAround(disturbed...)
	m.proto.SetOnBroadcast(nil)
	d.Cells = rep.TouchedCells
	d.Recovered = m.recovered(rep.Touched)
}

// recovered is the bounded-recovery predicate over the repair's touched
// cells: (1) consistency — no up node's routing entry names a down node;
// (2) local completeness — a NULL entry is only lawful when no up
// direct neighbor could seed it and no up same-cell direct neighbor has
// it (the protocol's fixpoint condition); (3) coverage — every touched
// cell with an up member has an up leader bound from that cell.
func (m *Machine) recovered(cells []geom.Coord) bool {
	nw := m.med.Network()
	g := m.hier.Grid
	inTouched := make(map[geom.Coord]bool, len(cells))
	for _, c := range cells {
		inTouched[c] = true
	}
	for _, cell := range cells {
		anyUp := false
		for _, id := range m.members[g.Index(cell)] {
			if !m.up(id) {
				continue
			}
			anyUp = true
			for dir := geom.North; dir < geom.NumDirs; dir++ {
				next := m.proto.NextHop(id, dir)
				if next >= 0 {
					if m.proto.Down(next) {
						return false // entry through a down node
					}
					continue
				}
				adj := cell.Step(dir)
				if !g.InBounds(adj) {
					continue
				}
				// NULL entry: locally unsatisfiable, or a miss?
				for _, v := range nw.Neighbors(id) {
					nbr := int(v)
					if !m.up(nbr) {
						continue
					}
					if m.proto.CellOf(nbr) == adj {
						return false // a base entry was available
					}
					if m.proto.CellOf(nbr) == cell && m.proto.NextHop(nbr, dir) >= 0 {
						return false // a neighbor could have taught it
					}
				}
			}
		}
		if anyUp {
			leader, ok := m.bnd.Leaders[cell]
			if !ok || !m.up(leader) || m.proto.CellOf(leader) != cell {
				return false // coverage: no up executor for a live cell
			}
		}
	}
	return true
}
