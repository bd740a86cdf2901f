package varch

import (
	"fmt"
	"math/rand"

	"wsnva/internal/battery"
	"wsnva/internal/fault"
	"wsnva/internal/geom"
	"wsnva/internal/routing"
	"wsnva/internal/sim"
	"wsnva/internal/trace"
)

// Fault wiring for the virtual machine: a fail-stop alive gate, a seeded
// per-message loss model, the stop-and-wait ARQ policy from internal/fault,
// and leader failover for the group-communication primitives. All of it is
// opt-in: a machine with no loss, no reliability, and no kills behaves —
// charge for charge and event for event — exactly like the bare machine,
// which is what keeps the pre-fault experiment tables byte-identical.

// FaultStats counts the fault layer's observable outcomes. All counters are
// cumulative over the machine's lifetime.
type FaultStats struct {
	Suppressed      int64 // sends attempted by dead nodes (silently dropped)
	Lost            int64 // transmission attempts that failed the loss draw
	DeadDrops       int64 // arrivals at nodes that died before delivery
	Retransmissions int64 // ARQ retransmission attempts
	Acks            int64 // acknowledgments charged by the ARQ
	Delivered       int64 // messages handed to an alive node's handler
}

// SetLoss makes every point-to-point transmission attempt fail
// independently with probability p, drawn from rng — the DES counterpart of
// the goroutine runtime's loss model, deterministic under a fixed seed.
// p = 0 disables loss (and rng may be nil).
func (vm *Machine) SetLoss(p float64, rng *rand.Rand) {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("varch: loss probability %v out of [0,1)", p))
	}
	if p > 0 && rng == nil {
		panic("varch: loss needs a random source")
	}
	vm.loss = p
	vm.lossRNG = rng
}

// SetBurstLoss replaces the Bernoulli loss model with a running
// Gilbert–Elliott burst channel: every point-to-point transmission attempt
// advances the chain one step and is lost with the current state's
// probability, so losses cluster into fades instead of arriving
// independently. nil disables. Burst and Bernoulli loss are exclusive —
// arming one disarms the other.
func (vm *Machine) SetBurstLoss(c *fault.BurstChannel) {
	vm.burst = c
	if c != nil {
		vm.loss = 0
		vm.lossRNG = nil
	}
}

// AttachBattery closes the energy loop: the bank meters every ledger
// charge, and the charge that crosses a node's budget fail-stops that node
// at the depleting operation's simulated time — through the injector (so
// liveness bookkeeping and any co-registered targets stay coherent), or
// directly against the machine when in is nil. Either way the node's owned
// events (retry timers, deliveries addressed to it) are cancelled.
func (vm *Machine) AttachBattery(b *battery.Bank, in *fault.Injector) {
	if b.N() != vm.Hier.Grid.N() {
		panic(fmt.Sprintf("varch: battery bank tracks %d nodes, grid has %d", b.N(), vm.Hier.Grid.N()))
	}
	vm.ledger.SetMeter(b)
	b.OnDeplete(func(node int) {
		if in != nil {
			in.Fail(node, vm)
			return
		}
		vm.Kill(node)
		vm.kernel.CancelOwner(node)
	})
}

// SetReliability arms the ARQ policy for Send, SendToLeader, and the
// collectives: every attempt pays the full route energy, a successful
// delivery pays the acknowledgment along the reverse route, and a lost
// attempt is retransmitted after a capped exponential backoff, at most
// r.MaxRetries times. The zero Reliability disables ARQ.
func (vm *Machine) SetReliability(r fault.Reliability) { vm.reliable = r }

// SetFailover enables leader failover: leader-addressed primitives resolve
// to the acting leader — the first alive member of the block in row-major
// grid order — instead of the statically assigned (possibly dead) leader.
func (vm *Machine) SetFailover(on bool) { vm.failover = on }

// Kill fails the virtual node with the given grid index: it stops sending
// (sends are suppressed) and stops receiving (arrivals are dropped without
// invoking the handler). Kill implements fault.Target so an Injector can
// arm crash schedules directly on the machine; the injector also cancels
// the node's owned kernel events (pending deliveries to it, its retry
// timers).
func (vm *Machine) Kill(node int) {
	if vm.alive == nil {
		vm.alive = make([]bool, vm.Hier.Grid.N())
		for i := range vm.alive {
			vm.alive[i] = true
		}
	}
	if !vm.alive[node] {
		return
	}
	vm.alive[node] = false
	if vm.tracer != nil {
		vm.tracer.EmitEvent(vm.evt(trace.Death, vm.Hier.Grid.CoordOf(node), noPeer, 0, 0, ""))
	}
}

// KillCoord is Kill addressed by grid coordinate.
func (vm *Machine) KillCoord(c geom.Coord) { vm.Kill(vm.Hier.Grid.Index(c)) }

// Alive reports whether the virtual node at c is still up.
func (vm *Machine) Alive(c geom.Coord) bool {
	return vm.aliveIdx(vm.Hier.Grid.Index(c))
}

func (vm *Machine) aliveIdx(i int) bool { return vm.alive == nil || vm.alive[i] }

// FaultStats returns the fault layer's counters.
func (vm *Machine) FaultStats() FaultStats { return vm.fstats }

// ActingLeaderAt resolves the level-k leader for c under failover: the
// static leader if failover is off, otherwise Hierarchy.ActingLeader over
// the machine's live nodes. If the whole block is dead, the static leader
// is returned and the message will evaporate at delivery.
func (vm *Machine) ActingLeaderAt(c geom.Coord, level int) geom.Coord {
	leader := vm.Hier.LeaderAt(c, level)
	if !vm.failover || vm.alive == nil {
		return leader
	}
	acting, ok := vm.Hier.ActingLeader(c, level, vm.Alive)
	if !ok {
		return leader
	}
	if acting != leader && vm.tracer != nil {
		vm.tracer.EmitEvent(vm.evt(trace.Failover, acting, leader, level, 0, "acting leader"))
	}
	return acting
}

// flight is one logical message moving under loss and/or ARQ. The same
// flight is relaunched for every retransmission; handles let a successful
// delivery cancel the pending retry and a firing retry abandon the copy
// still in the air, so at most one copy of a message is ever in flight.
type flight struct {
	from, to geom.Coord
	level    int // leader level the message was addressed at; 0: plain send
	size     int64
	msg      Message
	sentAt   sim.Time // original send time, for end-to-end latency metrics
	attempt  int      // retransmissions so far
	delivery sim.Handle
	retry    sim.Handle
}

// launch transmits one attempt: charges the full route, draws the loss
// coin, schedules the arrival (owned by the destination, so a crash
// cancels it) and, if the ARQ has retries left, the retry timer (owned by
// the sender).
func (vm *Machine) launch(f *flight) {
	g := vm.Hier.Grid
	routing.WalkXY(g, f.from, f.to, func(a, b geom.Coord) {
		vm.ledger.ChargeTransfer(g.Index(a), g.Index(b), f.size)
	})
	hops := f.from.Manhattan(f.to)
	vm.hops += int64(hops)
	base := vm.delay(sim.Time(hops) * sim.Time(vm.ledger.Model().TxLatency(f.size)))
	if vm.lossDraw() {
		vm.fstats.Lost++
		if vm.tracer != nil {
			vm.tracer.EmitEvent(vm.evt(trace.Drop, f.to, f.from, f.level, f.size, "lost"))
		}
		f.delivery = sim.Handle{}
	} else {
		f.delivery = vm.kernel.AfterOwned(g.Index(f.to), base, func() { vm.arrive(f) })
	}
	// The sender may have depleted mid-transfer (its own Tx charge crossed
	// the budget): its owned events were already cancelled, so scheduling a
	// retry now would escape the fail-stop. A dead sender gets no timer.
	if vm.reliable.Enabled() && f.attempt < vm.reliable.MaxRetries && vm.aliveIdx(g.Index(f.from)) {
		wait := vm.reliable.Backoff(f.attempt + 1)
		f.retry = vm.kernel.AfterOwned(g.Index(f.from), wait, func() { vm.retransmit(f) })
	} else {
		f.retry = sim.Handle{}
	}
}

// lossDraw decides whether one transmission attempt is lost, under
// whichever loss model is armed.
func (vm *Machine) lossDraw() bool {
	if vm.burst != nil {
		return vm.burst.Lost()
	}
	return vm.loss > 0 && vm.lossRNG.Float64() < vm.loss
}

// retransmit fires when the retry timer outlives the acknowledgment: the
// in-flight copy (if any — it may have been lost, or be crawling slower
// than the timeout) is abandoned and the message is sent again. A leader-
// addressed message re-resolves the acting leader first: the silent ack
// window IS the failure detector, so a dead leader's traffic re-routes to
// its promoted successor instead of being retried into a void.
func (vm *Machine) retransmit(f *flight) {
	if !vm.aliveIdx(vm.Hier.Grid.Index(f.from)) {
		return // the sender died; its retries die with it
	}
	vm.kernel.Cancel(f.delivery)
	f.attempt++
	vm.fstats.Retransmissions++
	if f.level > 0 {
		f.to = vm.ActingLeaderAt(f.from, f.level)
	}
	if vm.tracer != nil {
		vm.tracer.EmitEvent(vm.evt(trace.Retry, f.from, f.to, f.level, f.size, ""))
	}
	vm.launch(f)
}

// arrive completes one attempt at the destination. A dead destination
// drops the message (the retry timer, if armed, will resend); an alive one
// acknowledges (cancelling the retry) and takes delivery.
func (vm *Machine) arrive(f *flight) {
	g := vm.Hier.Grid
	if !vm.aliveIdx(g.Index(f.to)) {
		vm.fstats.DeadDrops++
		if vm.tracer != nil {
			vm.tracer.EmitEvent(vm.evt(trace.Drop, f.to, f.from, f.level, f.size, "dead receiver"))
		}
		return
	}
	vm.kernel.Cancel(f.retry)
	if vm.reliable.Enabled() {
		ack := vm.reliable.AckUnits()
		routing.WalkXY(g, f.to, f.from, func(a, b geom.Coord) {
			vm.ledger.ChargeTransfer(g.Index(a), g.Index(b), ack)
		})
		vm.fstats.Acks++
		if vm.tracer != nil {
			vm.tracer.EmitEvent(vm.evt(trace.Ack, f.to, f.from, f.level, ack, ""))
		}
	}
	vm.deliver(f.to, f.msg, f.sentAt)
}
