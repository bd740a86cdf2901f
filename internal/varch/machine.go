package varch

import (
	"fmt"
	"math/rand"

	"wsnva/internal/cost"
	"wsnva/internal/fault"
	"wsnva/internal/geom"
	"wsnva/internal/metrics"
	"wsnva/internal/routing"
	"wsnva/internal/sim"
	"wsnva/internal/trace"
)

// Message is what a virtual node receives through the architecture's
// communication primitives.
type Message struct {
	From    geom.Coord // sender's grid coordinate
	Size    int64      // size in cost-model data units
	Payload any        // application contents
}

// Machine is the virtual architecture's abstract machine: an oriented grid
// of virtual nodes exchanging messages under the uniform cost model. It is
// deliberately ignorant of the physical network — that is the whole point
// of the abstraction. Latency is modeled by the simulation kernel: a
// message of size s sent h hops arrives h·⌈s/b⌉ latency units later, and
// every hop charges Tx at the forwarding node and Rx at the next, exactly
// the accounting the paper's analysis assumes.
type Machine struct {
	Hier   *Hierarchy
	kernel *sim.Kernel
	ledger *cost.Ledger

	// recv receives every delivery, with the receiver's grid index (nil:
	// every node is deaf).
	recv func(to int, m Message)

	msgs     int64 // messages accepted by Send
	hops     int64 // total virtual hops traversed
	tracer   *trace.Tracer
	mSend    *metrics.Counter
	mDeliver *metrics.Counter
	hLatency *metrics.Histogram

	jitter    sim.Time
	jitterRNG *rand.Rand

	// freeFlights recycles flights, so a fault-free message costs one
	// kernel event and no heap allocation. A flight whose events a crash
	// cancelled inside the kernel never comes back and becomes garbage:
	// CancelOwner cannot tell us, and leaking a few records on the crash
	// path is cheaper than tracking them.
	freeFlights []*flight

	// Fault layer (see faults.go). alive == nil means no node has ever been
	// killed — the common case, kept nil so the hot path pays one pointer
	// compare.
	alive    []bool
	channel  fault.Channel
	reliable fault.Reliability
	fstats   FaultStats
}

// SetTracer attaches an event tracer (nil disables tracing, the default).
func (vm *Machine) SetTracer(t *trace.Tracer) { vm.tracer = t }

// Tracer returns the attached tracer, or nil. Driver layers (synth, emul)
// use it to decide whether to wire their own phase and rule-firing hooks.
func (vm *Machine) Tracer() *trace.Tracer { return vm.tracer }

// SetMetrics registers the machine's per-node counters (varch.send,
// varch.deliver) and the end-to-end delivery latency histogram
// (varch.latency) in reg. A nil registry detaches them.
func (vm *Machine) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		vm.mSend, vm.mDeliver, vm.hLatency = nil, nil, nil
		return
	}
	n := vm.Hier.Grid.N()
	vm.mSend = reg.Counter("varch.send", n)
	vm.mDeliver = reg.Counter("varch.deliver", n)
	vm.hLatency = reg.Histogram("varch.latency", metrics.ExpBounds(1, 12))
}

// emit records a structured event for the virtual node at c, named by its
// grid index; peer is the counterpart coordinate, or trace.NoCell when
// there is none. Safe on a nil tracer; per-message callers guard with
// vm.tracer != nil.
func (vm *Machine) emit(kind trace.Kind, c, peer geom.Coord, level int, bytes int64, detail string) {
	vm.tracer.EmitCell(vm.kernel.Now(), kind, c, vm.Hier.Grid.Index(c), peer, level, bytes, detail)
}

// SetJitter adds a uniform random extra delay in [0, j] to every message
// delivery, drawn from rng — a deterministic (seeded) way to exercise the
// unpredictable-latency environment of Section 4.3 on the DES engine.
// Energy accounting is unaffected; only delivery times move, so a correct
// program must produce identical results under any jitter seed (asserted
// in tests). Zero j disables jitter.
func (vm *Machine) SetJitter(j sim.Time, rng *rand.Rand) {
	if j < 0 {
		panic(fmt.Sprintf("varch: negative jitter %d", j))
	}
	if j > 0 && rng == nil {
		panic("varch: jitter needs a random source")
	}
	vm.jitter = j
	vm.jitterRNG = rng
}

// jitterDraw returns one delivery's extra delay (0 without jitter).
func (vm *Machine) jitterDraw() sim.Time {
	if vm.jitter == 0 {
		return 0
	}
	return sim.Time(vm.jitterRNG.Int63n(int64(vm.jitter) + 1))
}

// NewMachine builds a virtual machine over hierarchy h, driven by kernel
// and charging ledger (which must track one entry per grid cell).
func NewMachine(h *Hierarchy, kernel *sim.Kernel, ledger *cost.Ledger) *Machine {
	if ledger.N() != h.Grid.N() {
		panic(fmt.Sprintf("varch: ledger tracks %d nodes, grid has %d", ledger.N(), h.Grid.N()))
	}
	return &Machine{Hier: h, kernel: kernel, ledger: ledger}
}

// Grid returns the machine's virtual topology.
func (vm *Machine) Grid() *geom.Grid { return vm.Hier.Grid }

// Kernel returns the simulation kernel driving the machine.
func (vm *Machine) Kernel() *sim.Kernel { return vm.kernel }

// Ledger returns the machine's energy ledger.
func (vm *Machine) Ledger() *cost.Ledger { return vm.ledger }

// SetReceiver installs the function that consumes every delivered
// message, replacing any previous one: recv(to, m) runs with the
// receiver's grid index. A nil receiver makes every node deaf.
func (vm *Machine) SetReceiver(recv func(to int, m Message)) { vm.recv = recv }

// Send is the architecture's point-to-point primitive: it moves a message
// from one virtual node to another along the XY shortest-path route,
// charging every hop and delivering after the modeled latency. Sending to
// self delivers immediately at zero cost (the paper's mapping exploits
// this: one quad-tree child is always co-located with its parent).
func (vm *Machine) Send(from, to geom.Coord, size int64, payload any) {
	vm.sendMsg(from, to, 0, size, payload)
}

// sendMsg is Send with the leader level the message was addressed at (0 for
// point-to-point): under ARQ, a retransmission of a leader-addressed message
// re-resolves the acting leader, which is exactly how followers "detect" a
// dead leader — the ack timeout — without any extra protocol.
func (vm *Machine) sendMsg(from, to geom.Coord, level int, size int64, payload any) {
	g := vm.Hier.Grid
	if !g.InBounds(from) || !g.InBounds(to) {
		panic(fmt.Sprintf("varch: send %v->%v out of grid bounds", from, to))
	}
	if size < 0 {
		panic(fmt.Sprintf("varch: negative message size %d", size))
	}
	if !vm.accept(from, to, level, size, "") {
		return
	}
	f := vm.newFlight(from, to, level, size, payload)
	if from == to {
		// Self-delivery crosses no radio: no loss draw, no retry, no ack,
		// but the arrival is owned by the receiver so a crash still cancels
		// it.
		f.settled = true
		vm.kernel.AfterOwned(g.Index(to), vm.jitterDraw(), f.arriveFn)
		return
	}
	vm.launch(f)
}

// accept admits a message from a live sender, counting and tracing it as
// sent; a dead sender's message is suppressed and accept reports false.
func (vm *Machine) accept(from, to geom.Coord, level int, size int64, detail string) bool {
	idx := vm.Hier.Grid.Index(from)
	if !vm.aliveIdx(idx) {
		vm.fstats.Suppressed++
		if vm.tracer != nil {
			vm.emit(trace.Drop, from, to, level, size, "suppressed")
		}
		return false
	}
	vm.msgs++
	if vm.tracer != nil {
		vm.emit(trace.Send, from, to, level, size, detail)
	}
	if vm.mSend != nil {
		vm.mSend.Inc(idx)
	}
	return true
}

// SendToLeader is the group-communication primitive of Section 3.2: it
// addresses the sender's level-k leader as a logical entity. The middleware
// resolves the leader's identity from the sender's own coordinates — once
// nodes have died, the acting leader, so the primitive keeps working after
// the static leader dies.
func (vm *Machine) SendToLeader(from geom.Coord, level int, size int64, payload any) {
	vm.sendMsg(from, vm.ActingLeaderAt(from, level), level, size, payload)
}

// flight is one message the machine delivers. Every delivery is the
// arrival of a flight: a send's, a self-send's and each member's copy of a
// group broadcast. Flights are pooled, with their arrival func bound once,
// and go back to the pool as soon as none of their events is queued.
// Every message takes one, so the record stays at 96 bytes: level is an
// int32 and the ARQ's state lives apart.
type flight struct {
	vm     *Machine
	to     geom.Coord
	msg    Message  // carries the sender (From) and the size
	sentAt sim.Time // original send time, for end-to-end latency metrics
	level  int32    // leader level the message was addressed at; 0: plain send
	// settled marks a flight whose arrival only hands the message over: a
	// self-send, or a group-broadcast copy whose route the collective
	// already charged. It draws no loss, arms no retry and owes no ack.
	settled  bool
	arriveFn func()
	arq      *arq // from the flight's first retry timer on
}

// arq is a flight's stop-and-wait state, allocated at its first retry
// timer and kept with the flight through the pool. The same flight is
// relaunched for every retransmission; the handles let a successful
// arrival cancel the pending retry and a firing retry abandon the copy
// still in the air, so at most one copy of a message is ever in flight. A
// handle whose event fired or was cancelled stays inert (see sim.Handle),
// so none is ever cleared.
type arq struct {
	attempt  int // retransmissions so far
	delivery sim.Handle
	retry    sim.Handle
	retryFn  func()
}

func (vm *Machine) newFlight(from, to geom.Coord, level int, size int64, payload any) *flight {
	var f *flight
	if n := len(vm.freeFlights); n > 0 {
		f = vm.freeFlights[n-1]
		vm.freeFlights = vm.freeFlights[:n-1]
	} else {
		f = &flight{vm: vm}
		f.arriveFn = f.arrive
	}
	f.to, f.level, f.settled = to, int32(level), false
	f.msg = Message{From: from, Size: size, Payload: payload}
	f.sentAt = vm.kernel.Now()
	return f
}

// free returns f to the pool; none of its events may still be queued.
func (vm *Machine) free(f *flight) {
	f.msg = Message{}
	if f.arq != nil {
		f.arq.attempt = 0
	}
	vm.freeFlights = append(vm.freeFlights, f)
}

// launch transmits one attempt: it charges the full route, draws the loss,
// schedules the arrival (owned by the destination, so a crash cancels it)
// and, if the ARQ has retries left, the retry timer (owned by the sender).
func (vm *Machine) launch(f *flight) {
	g := vm.Hier.Grid
	wait := vm.jitterDraw()
	from := f.msg.From
	lat, lost := vm.attempt(from, f.to, int(f.level), f.msg.Size)
	var delivery sim.Handle
	if !lost {
		delivery = vm.kernel.AfterOwned(g.Index(f.to), lat+wait, f.arriveFn)
	}
	// The sender may have depleted mid-transfer (its own Tx charge crossed
	// the budget): its owned events were already cancelled, so scheduling a
	// retry now would escape the fail-stop. A dead sender gets no timer.
	r := f.arq
	if vm.reliable.Enabled() && (r == nil || r.attempt < vm.reliable.MaxRetries) && vm.aliveIdx(g.Index(from)) {
		if r == nil {
			r = &arq{}
			r.retryFn = f.retransmit
			f.arq = r
		}
		r.delivery = delivery
		r.retry = vm.kernel.AfterOwned(g.Index(from), vm.reliable.Backoff(r.attempt+1), r.retryFn)
		return
	}
	if lost {
		vm.free(f) // no copy in the air and no timer to resend it
	}
}

// attempt moves one copy of a size-unit message along the XY route between
// two nodes: it charges every hop and draws the copy's loss from the
// channel. It returns the route's latency and whether the copy was lost.
// Sends and collectives both transmit through it.
func (vm *Machine) attempt(from, to geom.Coord, level int, size int64) (sim.Time, bool) {
	g := vm.Hier.Grid
	routing.WalkXY(g, from, to, func(a, b geom.Coord) {
		vm.ledger.ChargeTransfer(g.Index(a), g.Index(b), size)
	})
	hops := from.Manhattan(to)
	vm.hops += int64(hops)
	lat := sim.Time(hops) * sim.Time(vm.ledger.Model().TxLatency(size))
	if vm.channel == nil || !vm.channel.Lost(g.Index(from), g.Index(to), size) {
		return lat, false
	}
	vm.fstats.Lost++
	if vm.tracer != nil {
		vm.emit(trace.Drop, to, from, level, size, "lost")
	}
	return lat, true
}

// ack charges the acknowledgment of a delivered message along the XY route
// from its receiver back to its sender and returns the ack's latency.
func (vm *Machine) ack(rcv, snd geom.Coord, level int) sim.Time {
	g := vm.Hier.Grid
	units := vm.reliable.AckUnits()
	routing.WalkXY(g, rcv, snd, func(a, b geom.Coord) {
		vm.ledger.ChargeTransfer(g.Index(a), g.Index(b), units)
	})
	vm.fstats.Acks++
	if vm.tracer != nil {
		vm.emit(trace.Ack, rcv, snd, level, units, "")
	}
	return sim.Time(rcv.Manhattan(snd)) * sim.Time(vm.ledger.Model().TxLatency(units))
}

// retransmit fires when the retry timer outlives the acknowledgment: the
// in-flight copy (if any — it may have been lost, or be crawling slower
// than the timeout) is abandoned and the message is sent again. A leader-
// addressed message re-resolves the acting leader first: the silent ack
// window IS the failure detector, so a dead leader's traffic re-routes to
// its promoted successor instead of being retried into a void.
func (f *flight) retransmit() {
	vm, r, from := f.vm, f.arq, f.msg.From
	if !vm.aliveIdx(vm.Hier.Grid.Index(from)) {
		// The sender died; its retries die with it.
		if !r.delivery.Pending() {
			vm.free(f)
		}
		return
	}
	vm.kernel.Cancel(r.delivery)
	r.attempt++
	vm.fstats.Retransmissions++
	if f.level > 0 {
		f.to = vm.ActingLeaderAt(from, int(f.level))
	}
	if vm.tracer != nil {
		vm.emit(trace.Retry, from, f.to, int(f.level), f.msg.Size, "")
	}
	vm.launch(f)
}

// arrive completes one attempt at the destination. A dead destination
// drops the message (the retry timer, if armed, will resend); an alive one
// acknowledges (cancelling the retry) and takes delivery.
func (f *flight) arrive() {
	vm := f.vm
	idx := vm.Hier.Grid.Index(f.to)
	if !f.settled {
		if !vm.aliveIdx(idx) {
			vm.deadDrop(f.to, f.msg.From, int(f.level), f.msg.Size)
			if f.arq == nil || !f.arq.retry.Pending() {
				vm.free(f)
			}
			return
		}
		if f.arq != nil {
			vm.kernel.Cancel(f.arq.retry)
		}
		if vm.reliable.Enabled() {
			vm.ack(f.to, f.msg.From, int(f.level))
		}
	}
	// Back to the pool before the receiver runs, so the sends it makes can
	// reuse the flight at once.
	to, msg, sentAt := f.to, f.msg, f.sentAt
	vm.free(f)
	vm.deliver(idx, to, msg, sentAt)
}

// deliver hands msg to the receiver at to (grid index idx), unless to died
// on the way (a settled arrival, or the acknowledgment's charge depleted
// it).
func (vm *Machine) deliver(idx int, to geom.Coord, msg Message, sentAt sim.Time) {
	if !vm.aliveIdx(idx) {
		vm.deadDrop(to, msg.From, 0, msg.Size)
		return
	}
	vm.delivered(idx, to, msg.From, msg.Size, "")
	if vm.hLatency != nil {
		vm.hLatency.Observe(int64(vm.kernel.Now() - sentAt))
	}
	if vm.recv != nil {
		vm.recv(idx, msg)
	}
}

// deadDrop counts and traces a message from one node that found the node
// at to dead.
func (vm *Machine) deadDrop(to, from geom.Coord, level int, size int64) {
	vm.fstats.DeadDrops++
	if vm.tracer != nil {
		vm.emit(trace.Drop, to, from, level, size, "dead receiver")
	}
}

// delivered counts and traces one message handed over at to (grid index
// idx).
func (vm *Machine) delivered(idx int, to, from geom.Coord, size int64, detail string) {
	vm.fstats.Delivered++
	if vm.tracer != nil {
		vm.emit(trace.Deliver, to, from, 0, size, detail)
	}
	if vm.mDeliver != nil {
		vm.mDeliver.Inc(idx)
	}
}

// Compute charges node c for processing units data units and returns the
// latency the computation occupies.
func (vm *Machine) Compute(c geom.Coord, units int64) sim.Time {
	idx := vm.Hier.Grid.Index(c)
	vm.ledger.Charge(idx, cost.Compute, units)
	// Alive-gated: a dead CPU computes nothing (its charge was vetoed too),
	// and collectives call Compute on sub-leaders without checking liveness.
	if vm.tracer != nil && vm.aliveIdx(idx) {
		vm.emit(trace.Compute, c, trace.NoCell, 0, units, "")
	}
	return sim.Time(vm.ledger.Model().ComputeLatency(units))
}

// Sense charges node c for one sensor sample of the given size.
func (vm *Machine) Sense(c geom.Coord, units int64) sim.Time {
	idx := vm.Hier.Grid.Index(c)
	vm.ledger.Charge(idx, cost.Sense, units)
	if vm.tracer != nil && vm.aliveIdx(idx) {
		vm.emit(trace.Sense, c, trace.NoCell, 0, units, "")
	}
	return sim.Time(vm.ledger.Model().ComputeLatency(units))
}

// Stats returns the machine's cumulative message and hop counters.
func (vm *Machine) Stats() (msgs, hops int64) { return vm.msgs, vm.hops }

// PredictSendCost returns, without executing anything, the energy and
// latency the cost model assigns to sending size units from one node to
// another: energy = 2·size·hops (Tx+Rx per hop), latency = hops·⌈size/b⌉.
// This is the "rapid first-order performance estimation" the architecture
// exists to provide (Section 2); experiment E8 checks the prediction
// against the emulated implementation.
func (vm *Machine) PredictSendCost(from, to geom.Coord, size int64) (cost.Energy, sim.Time) {
	hops := int64(from.Manhattan(to))
	m := vm.ledger.Model()
	energy := cost.Energy(hops) * (m.EnergyOf(cost.Tx, size) + m.EnergyOf(cost.Rx, size))
	return energy, sim.Time(hops) * sim.Time(m.TxLatency(size))
}

// PredictLeaderCost is PredictSendCost for the group primitive.
func (vm *Machine) PredictLeaderCost(from geom.Coord, level int, size int64) (cost.Energy, sim.Time) {
	return vm.PredictSendCost(from, vm.Hier.LeaderAt(from, level), size)
}
