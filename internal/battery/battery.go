// Package battery closes the loop between the cost model and the fault
// model: every node carries a finite energy budget, every cost.Ledger
// charge drains it, and the charge that crosses the budget fail-stops the
// node at the precise simulated time of the depleting operation. Where the
// fault package injects crashes as *inputs* (externally scheduled), the
// battery makes death an *output* of the system's own behavior — ARQ
// retransmissions, collective traffic, and leader duties all spend real
// energy, so the paper's lifetime and energy-balance metrics (Section 2)
// become emergent, measurable properties instead of post-hoc
// extrapolations from one round's ledger.
//
// Mechanically a Bank implements cost.Meter. Attach it with
// Ledger.SetMeter and it observes every Charge before the charge lands:
//
//   - a charge to a live node is granted and accumulated; if the node's
//     cumulative drain then exceeds its capacity, the node is declared
//     depleted and the OnDeplete callback fires synchronously — inside the
//     charging event, so the death is ordered at exactly the depleting
//     operation's simulated time. The depleting charge itself is granted
//     (the "dying gasp"): the operation that exhausted the battery
//     completes, and only subsequent activity is silenced.
//
//   - a charge to a depleted node is vetoed: Charge records nothing and
//     returns 0. A dead radio neither transmits nor receives, so the
//     ledger never moves again for that node — the dead-nodes-are-never-
//     charged invariant the property tests pin.
//
// Everything is deterministic: capacities are fixed or seed-derived, and
// depletion order is a pure function of the charge sequence.
package battery

import (
	"fmt"
	"math/rand"

	"wsnva/internal/cost"
	"wsnva/internal/sim"
	"wsnva/internal/trace"
)

// Unlimited is an effectively infinite capacity: no realistic simulation
// accumulates half of int64 energy units. A bank whose every node holds
// Unlimited never kills anyone, which is what the infinite-budget identity
// property exercises.
const Unlimited = cost.Energy(1) << 62

// Bank tracks one battery per node. It implements cost.Meter.
type Bank struct {
	capacity []cost.Energy
	drained  []cost.Energy
	dead     []bool
	deaths   int
	// onDeplete, if set, fires synchronously the moment a node's drain
	// crosses its capacity — after the crossing charge is granted, before
	// Absorb returns. The callback is the metered engine's fail-stop
	// (varch.Machine.Kill, emul.Machine.Kill, the shard engine's deplete)
	// and must not charge the ledger the bank is metering.
	onDeplete func(node int)
	tracer    *trace.Tracer
	clock     func() sim.Time

	// Instant-granularity dying-gasp mode (see Gasp): a depleted node
	// keeps absorbing charges stamped at its depletion instant, and the
	// veto starts only at the next time step. graceUntil[node] is the
	// depletion instant, -1 while the node is up.
	gaspClock  func() sim.Time
	graceUntil []sim.Time
}

// SetTracer attaches an observability tracer (nil detaches): each
// depletion emits a trace.Deplete event carrying the node's total drain in
// Bytes, stamped with clock's time (nil clock stamps 0). The event is
// emitted before OnDeplete fires, so in a trace the order at the death
// instant reads Deplete, then the fault layer's Death, then the dying
// gasp's Charge.
func (b *Bank) SetTracer(t *trace.Tracer, clock func() sim.Time) {
	b.tracer = t
	b.clock = clock
}

// Uniform returns a bank giving every one of n nodes the same capacity.
func Uniform(n int, capacity cost.Energy) *Bank {
	if n <= 0 {
		panic(fmt.Sprintf("battery: bank needs positive node count, got %d", n))
	}
	if capacity < 0 {
		panic(fmt.Sprintf("battery: negative capacity %d", capacity))
	}
	caps := make([]cost.Energy, n)
	for i := range caps {
		caps[i] = capacity
	}
	return fromCaps(caps)
}

// Heterogeneous returns a bank with per-node capacities drawn uniformly
// from [lo, hi], seed-derived — the mixed-provisioning deployments the WSN
// literature studies, deterministic per seed.
func Heterogeneous(n int, lo, hi cost.Energy, seed int64) *Bank {
	if n <= 0 {
		panic(fmt.Sprintf("battery: bank needs positive node count, got %d", n))
	}
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("battery: bad capacity range [%d, %d]", lo, hi))
	}
	rng := rand.New(rand.NewSource(seed))
	caps := make([]cost.Energy, n)
	for i := range caps {
		caps[i] = lo + cost.Energy(rng.Int63n(int64(hi-lo)+1))
	}
	return fromCaps(caps)
}

// FromCapacities returns a bank over an explicit capacity vector.
func FromCapacities(caps []cost.Energy) *Bank {
	if len(caps) == 0 {
		panic("battery: empty capacity vector")
	}
	for i, c := range caps {
		if c < 0 {
			panic(fmt.Sprintf("battery: negative capacity %d for node %d", c, i))
		}
	}
	return fromCaps(append([]cost.Energy(nil), caps...))
}

func fromCaps(caps []cost.Energy) *Bank {
	return &Bank{
		capacity: caps,
		drained:  make([]cost.Energy, len(caps)),
		dead:     make([]bool, len(caps)),
	}
}

// OnDeplete installs the depletion callback (nil disables). It fires at
// most once per node, synchronously inside the depleting charge.
func (b *Bank) OnDeplete(f func(node int)) { b.onDeplete = f }

// Gasp switches the bank to instant-granularity dying-gasp semantics,
// clocked by clock: a node whose drain crosses capacity at instant t
// still absorbs every further charge stamped t (the whole instant is the
// dying gasp), and the veto begins at t+1. OnDeplete still fires exactly
// once, at the crossing.
//
// This is the mode the sharded kernel needs. Charges landing at one
// simulated instant carry no defined order between a sharded engine and
// a single kernel, so the per-charge gasp (exactly one granted overshoot)
// would make the granted set depend on intra-instant scheduling; granting
// the whole instant is order-independent. For the same reason the Deplete
// trace event in this mode reports the node's capacity in Bytes rather
// than the (order-dependent) drain at the crossing.
func (b *Bank) Gasp(clock func() sim.Time) {
	if clock == nil {
		panic("battery: Gasp needs a clock")
	}
	b.gaspClock = clock
	b.graceUntil = make([]sim.Time, len(b.capacity))
	for i := range b.graceUntil {
		b.graceUntil[i] = -1
	}
}

// Absorb implements cost.Meter: veto charges to depleted nodes, grant and
// accumulate everything else, and fail-stop a node the instant its drain
// exceeds capacity.
func (b *Bank) Absorb(node int, _ cost.Op, e cost.Energy) bool {
	if b.dead[node] {
		// In gasp mode the depletion instant itself is still granted:
		// every charge stamped at graceUntil[node] accrues, the veto
		// starts at the next time step.
		if b.gaspClock != nil && b.graceUntil[node] >= 0 && b.gaspClock() <= b.graceUntil[node] {
			b.drained[node] += e
			return true
		}
		return false
	}
	if e == 0 {
		return true
	}
	b.drained[node] += e
	if b.drained[node] > b.capacity[node] {
		b.dead[node] = true
		b.deaths++
		reported := int64(b.drained[node])
		if b.gaspClock != nil {
			b.graceUntil[node] = b.gaspClock()
			reported = int64(b.capacity[node])
		}
		if b.tracer != nil {
			var at sim.Time
			if b.clock != nil {
				at = b.clock()
			}
			b.tracer.EmitNode(at, trace.Deplete, node, -1, 0, reported, "battery exhausted")
		}
		if b.onDeplete != nil {
			b.onDeplete(node)
		}
	}
	return true
}

// N returns the number of nodes the bank tracks.
func (b *Bank) N() int { return len(b.capacity) }

// Capacity returns node's budget.
func (b *Bank) Capacity(node int) cost.Energy { return b.capacity[node] }

// Drained returns node's cumulative granted charge. For a depleted node it
// is frozen at the value that killed it (capacity plus the dying gasp's
// overshoot).
func (b *Bank) Drained(node int) cost.Energy { return b.drained[node] }

// Residual returns node's remaining budget (never negative).
func (b *Bank) Residual(node int) cost.Energy {
	if r := b.capacity[node] - b.drained[node]; r > 0 {
		return r
	}
	return 0
}

// Depleted reports whether node's battery is exhausted.
func (b *Bank) Depleted(node int) bool { return b.dead[node] }

// Deaths returns how many nodes have depleted so far.
func (b *Bank) Deaths() int { return b.deaths }
