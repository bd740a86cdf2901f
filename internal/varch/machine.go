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

// Handler consumes messages arriving at a virtual node.
type Handler func(m Message)

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

	handlers []Handler

	// handleAll receives deliveries to nodes without a handler.
	handleAll func(to int, m Message)

	msgs     int64 // messages accepted by Send
	hops     int64 // total virtual hops traversed
	tracer   *trace.Tracer
	mSend    *metrics.Counter
	mDeliver *metrics.Counter
	hLatency *metrics.Histogram

	jitter    sim.Time
	jitterRNG *rand.Rand

	// freeVD recycles delivery records for the fault-free send paths, so the
	// per-message cost of scheduling a delivery is one kernel event and zero
	// heap allocations. Records owned by a node that crashes are cancelled
	// inside the kernel and simply become garbage — CancelOwner cannot tell
	// us, and leaking a handful of records on the (rare) crash path is
	// cheaper than tracking them.
	freeVD []*vdelivery

	// Fault layer (see faults.go). alive == nil means no node has ever been
	// killed — the common case, kept nil so the hot path pays one pointer
	// compare.
	alive    []bool
	loss     float64
	lossRNG  *rand.Rand
	burst    *fault.BurstChannel
	reliable fault.Reliability
	failover bool
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

// noPeer marks the absence of a counterpart coordinate in a structured
// event.
var noPeer = geom.Coord{Col: -1, Row: -1}

// evt builds a structured event for the virtual node at c; peer is the
// counterpart coordinate, or noPeer when there is none. Building the event
// allocates (coordinate strings), so callers guard with vm.tracer != nil.
func (vm *Machine) evt(kind trace.Kind, c, peer geom.Coord, level int, bytes int64, detail string) trace.Event {
	e := trace.Event{At: vm.kernel.Now(), Kind: kind,
		Node: c.String(), ID: vm.Hier.Grid.Index(c), Col: c.Col, Row: c.Row,
		PeerCol: peer.Col, PeerRow: peer.Row, Level: level, Bytes: bytes, Detail: detail}
	if peer.Col >= 0 && peer.Row >= 0 {
		e.Peer = peer.String()
	}
	return e
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

func (vm *Machine) delay(base sim.Time) sim.Time {
	if vm.jitter > 0 {
		base += sim.Time(vm.jitterRNG.Int63n(int64(vm.jitter) + 1))
	}
	return base
}

// NewMachine builds a virtual machine over hierarchy h, driven by kernel
// and charging ledger (which must track one entry per grid cell).
func NewMachine(h *Hierarchy, kernel *sim.Kernel, ledger *cost.Ledger) *Machine {
	if ledger.N() != h.Grid.N() {
		panic(fmt.Sprintf("varch: ledger tracks %d nodes, grid has %d", ledger.N(), h.Grid.N()))
	}
	return &Machine{
		Hier:     h,
		kernel:   kernel,
		ledger:   ledger,
		handlers: make([]Handler, h.Grid.N()),
	}
}

// Grid returns the machine's virtual topology.
func (vm *Machine) Grid() *geom.Grid { return vm.Hier.Grid }

// Kernel returns the simulation kernel driving the machine.
func (vm *Machine) Kernel() *sim.Kernel { return vm.kernel }

// Ledger returns the machine's energy ledger.
func (vm *Machine) Ledger() *cost.Ledger { return vm.ledger }

// Handle installs the receive handler of the virtual node at c.
func (vm *Machine) Handle(c geom.Coord, h Handler) {
	vm.handlers[vm.Hier.Grid.Index(c)] = h
}

// HandleAll installs one receive handler for every virtual node, called
// with the receiver's grid index, and drops the per-node handlers; a later
// Handle overrides it at that node. A program driver wires a whole run
// with it instead of one closure per node.
func (vm *Machine) HandleAll(h func(to int, m Message)) {
	clear(vm.handlers)
	vm.handleAll = h
}

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
	if !vm.aliveIdx(g.Index(from)) {
		vm.fstats.Suppressed++
		if vm.tracer != nil {
			vm.tracer.EmitEvent(vm.evt(trace.Drop, from, to, level, size, "suppressed"))
		}
		return
	}
	vm.msgs++
	if vm.tracer != nil {
		vm.tracer.EmitEvent(vm.evt(trace.Send, from, to, level, size, ""))
	}
	if vm.mSend != nil {
		vm.mSend.Inc(g.Index(from))
	}
	sentAt := vm.kernel.Now()
	msg := Message{From: from, Size: size, Payload: payload}
	hops := from.Manhattan(to)
	if hops == 0 {
		// Self-delivery crosses no radio: loss and ARQ do not apply, but the
		// event is owned by the receiver so a crash still cancels it.
		vm.kernel.AfterOwned(g.Index(to), vm.delay(0), vm.newDelivery(to, msg, sentAt).fire)
		return
	}
	if vm.loss == 0 && vm.burst == nil && !vm.reliable.Enabled() {
		// Fast path: identical charges and timing to the fault-free machine.
		routing.WalkXY(g, from, to, func(a, b geom.Coord) {
			vm.ledger.ChargeTransfer(g.Index(a), g.Index(b), size)
		})
		vm.hops += int64(hops)
		base := sim.Time(hops) * sim.Time(vm.ledger.Model().TxLatency(size))
		vm.kernel.AfterOwned(g.Index(to), vm.delay(base), vm.newDelivery(to, msg, sentAt).fire)
		return
	}
	vm.launch(&flight{from: from, to: to, level: level, size: size, msg: msg, sentAt: sentAt})
}

// vdelivery is a pooled in-flight delivery: the fields a delivery event
// needs, with a fire func bound once at allocation so scheduling one costs
// no closure. It recycles itself into the machine's free list before
// invoking deliver, so cascading sends from inside a handler can reuse it
// immediately.
type vdelivery struct {
	vm     *Machine
	to     geom.Coord
	msg    Message
	sentAt sim.Time
	fire   func()
}

func (vm *Machine) newDelivery(to geom.Coord, msg Message, sentAt sim.Time) *vdelivery {
	var d *vdelivery
	if n := len(vm.freeVD); n > 0 {
		d = vm.freeVD[n-1]
		vm.freeVD = vm.freeVD[:n-1]
	} else {
		d = &vdelivery{vm: vm}
		d.fire = d.run
	}
	d.to, d.msg, d.sentAt = to, msg, sentAt
	return d
}

func (d *vdelivery) run() {
	vm, to, msg, sentAt := d.vm, d.to, d.msg, d.sentAt
	d.msg = Message{}
	vm.freeVD = append(vm.freeVD, d)
	vm.deliver(to, msg, sentAt)
}

// SendToLeader is the group-communication primitive of Section 3.2: it
// addresses the sender's level-k leader as a logical entity. The middleware
// resolves the leader's identity from the sender's own coordinates — under
// failover, the acting leader, so the primitive keeps working after the
// static leader dies.
func (vm *Machine) SendToLeader(from geom.Coord, level int, size int64, payload any) {
	vm.sendMsg(from, vm.ActingLeaderAt(from, level), level, size, payload)
}

func (vm *Machine) deliver(to geom.Coord, msg Message, sentAt sim.Time) {
	idx := vm.Hier.Grid.Index(to)
	if !vm.aliveIdx(idx) {
		vm.fstats.DeadDrops++
		if vm.tracer != nil {
			vm.tracer.EmitEvent(vm.evt(trace.Drop, to, msg.From, 0, msg.Size, "dead receiver"))
		}
		return
	}
	vm.fstats.Delivered++
	if vm.tracer != nil {
		vm.tracer.EmitEvent(vm.evt(trace.Deliver, to, msg.From, 0, msg.Size, ""))
	}
	if vm.mDeliver != nil {
		vm.mDeliver.Inc(idx)
	}
	if vm.hLatency != nil {
		vm.hLatency.Observe(int64(vm.kernel.Now() - sentAt))
	}
	if h := vm.handlers[idx]; h != nil {
		h(msg)
	} else if vm.handleAll != nil {
		vm.handleAll(idx, msg)
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
		vm.tracer.EmitEvent(vm.evt(trace.Compute, c, noPeer, 0, units, ""))
	}
	return sim.Time(vm.ledger.Model().ComputeLatency(units))
}

// Sense charges node c for one sensor sample of the given size.
func (vm *Machine) Sense(c geom.Coord, units int64) sim.Time {
	idx := vm.Hier.Grid.Index(c)
	vm.ledger.Charge(idx, cost.Sense, units)
	if vm.tracer != nil && vm.aliveIdx(idx) {
		vm.tracer.EmitEvent(vm.evt(trace.Sense, c, noPeer, 0, units, ""))
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
