// Package radio simulates the physical layer: a broadcast medium over the
// disk-model connectivity graph of a deployment. Every transmission by a
// node is heard by all of its one-hop neighbors (the short-range
// omnidirectional antenna of Section 3.2) after the cost model's
// transmission latency, and each delivery is independently dropped with a
// configurable loss probability — the "some messages might even be
// dropped" environment that motivates the paper's asynchronous,
// incremental programming model.
//
// Energy accounting matches the paper's uniform cost model: one transmit
// charge at the sender per broadcast and one receive charge at every
// neighbor that actually receives it.
//
// A medium has one receiver, a func(to, pkt) the protocol driving it sets
// with SetReceiver; it runs once per delivery, after the liveness gate,
// the Rx charge and the trace events. Each transmission is one kernel
// event that delivers to its receivers in ascending ID order. On a medium
// without loss a broadcast reads those receivers straight from the
// sender's CSR neighbor row; lossy broadcasts and unicasts keep their own
// list.
package radio

import (
	"fmt"
	"math/rand"
	"slices"

	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/fault"
	"wsnva/internal/sim"
	"wsnva/internal/trace"
)

// Packet is what a node hears from the medium.
type Packet struct {
	From    int   // sender node ID
	Size    int64 // payload size in cost-model data units
	Payload any   // protocol-defined contents
}

// Medium is the shared broadcast channel. It is bound to one deployment,
// one simulation kernel, one ledger, and one loss channel; all are
// injected so experiments stay deterministic. It hands every delivered
// packet to one receiver, that of the protocol currently driving it
// (SetReceiver).
type Medium struct {
	nw     *deploy.Network
	kernel *sim.Kernel
	ledger *cost.Ledger
	// channel draws every delivery attempt's loss, once per neighbor on a
	// broadcast and once on a unicast, in ascending-neighbor order; nil
	// is lossless and draws nothing.
	channel fault.Channel
	// recv is the one receiver every delivery reaches (nil: all deaf).
	recv func(to int, pkt Packet)
	// alive is the per-node fail-stop gate: a dead node neither transmits
	// nor receives. All nodes start alive; the fault layer flips entries
	// via Kill and they never come back.
	alive []bool
	// gasp, when allocated, extends a node's life through its final
	// instant: Expire(node) clears alive but records the expiry time, and
	// the liveness gate still passes for events at that exact timestamp —
	// the battery layer's dying-gasp instant. -1 means no expiry.
	gasp []sim.Time
	// asleep, when allocated, is the reversible third state of the
	// liveness gate: a suspended node neither transmits nor receives
	// (deliveries drop without an Rx charge), but unlike Kill the
	// silence ends when Resume clears the flag. Dead trumps asleep:
	// Suspend/Resume on a dead node are no-ops, and Kill of a sleeping
	// node is final as usual.
	asleep []bool

	sent      int64 // broadcasts initiated
	delivered int64 // per-neighbor successful deliveries
	dropped   int64 // per-neighbor losses (loss draws and dead receivers)

	// freeDel recycles delivery records (see delivery) so the steady-state
	// hot path schedules fan-out without allocating.
	freeDel []*delivery

	tracer *trace.Tracer
}

// Config collects the knobs for a Medium.
type Config struct {
	Loss float64 // per-delivery drop probability in [0,1)
	// Channel, when set, replaces the Bernoulli draw over the medium's
	// rng with another loss decision (counter-keyed streams, bursty
	// chains). Mutually exclusive with Loss.
	Channel fault.Channel
}

// NewMedium builds a broadcast medium over nw driven by kernel, charging
// energy to ledger. A nonzero cfg.Loss becomes a fault.Bernoulli channel
// drawing from rng; rng is read for nothing else, so it may be nil when
// cfg.Loss is 0.
func NewMedium(nw *deploy.Network, kernel *sim.Kernel, ledger *cost.Ledger, rng *rand.Rand, cfg Config) *Medium {
	channel := cfg.Channel
	if cfg.Loss != 0 {
		if channel != nil {
			panic("radio: Config.Loss and Config.Channel are mutually exclusive")
		}
		channel = fault.NewBernoulli(cfg.Loss, rng)
	}
	if ledger.N() != nw.N() {
		panic(fmt.Sprintf("radio: ledger tracks %d nodes, network has %d", ledger.N(), nw.N()))
	}
	// The unicast neighbor check binary-searches the adjacency lists, so
	// their documented sort order is load-bearing; verify it once here
	// rather than trusting every Network constructor forever. One linear
	// scan over the flat CSR element array, checking inside each row.
	offsets, elems := nw.CSRView()
	for id := 0; id < nw.N(); id++ {
		for e := int(offsets[id]) + 1; e < int(offsets[id+1]); e++ {
			if elems[e-1] >= elems[e] {
				panic(fmt.Sprintf("radio: adjacency list of node %d not strictly ascending (%d then %d)",
					id, elems[e-1], elems[e]))
			}
		}
	}
	alive := make([]bool, nw.N())
	for i := range alive {
		alive[i] = true
	}
	return &Medium{
		nw:      nw,
		kernel:  kernel,
		ledger:  ledger,
		channel: channel,
		alive:   alive,
	}
}

// SetTracer attaches an observability tracer (nil detaches): every
// transmission, reception, drop, and kill emits a structured event. All
// emissions are guarded, so a detached medium pays one pointer compare.
func (m *Medium) SetTracer(t *trace.Tracer) { m.tracer = t }

// emit records a structured event for node (and optional peer >= 0),
// stamped at the kernel's current time. Callers guard with m.tracer != nil.
func (m *Medium) emit(kind trace.Kind, node, peer int, size int64, detail string) {
	e := trace.Event{At: m.kernel.Now(), Kind: kind,
		Node: trace.NodeName(node), ID: node,
		Col: -1, Row: -1, PeerCol: -1, PeerRow: -1,
		Bytes: size, Detail: detail}
	if peer >= 0 {
		e.Peer = trace.NodeName(peer)
	}
	m.tracer.EmitEvent(e)
}

// Kill silences node for good: it stops transmitting (Broadcast/Unicast
// from it are no-ops that charge nothing) and stops receiving (deliveries
// to it are dropped without an Rx charge — the radio is off). Killing a
// dead node is a no-op. It is the radio's part of a fail-stop: the
// engine on the medium (emul.Machine.Kill) also deposes the node from
// its protocol roles.
func (m *Medium) Kill(node int) {
	if !m.alive[node] {
		return
	}
	m.alive[node] = false
	if m.tracer != nil {
		m.emit(trace.Death, node, -1, 0, "radio off")
	}
}

// Expire is the battery layer's instant-granularity kill: the node's
// radio completes every event at the current instant — the dying gasp
// of a depletion that fires mid-instant — and is off from the next time
// step on. Like Kill it emits a Death event (at the expiry instant) and
// is a no-op on a node that is already down.
//
// The instant granularity is what makes a mid-run depletion reproducible
// across shardings: deliveries within one instant carry no defined order
// between a sharded engine and a single kernel, so the only
// order-independent rule is "everything at the death instant still
// lands, nothing after it does".
func (m *Medium) Expire(node int) {
	if !m.alive[node] {
		return
	}
	if m.gasp == nil {
		m.gasp = make([]sim.Time, m.nw.N())
		for i := range m.gasp {
			m.gasp[i] = -1
		}
	}
	m.alive[node] = false
	m.gasp[node] = m.kernel.Now()
	if m.tracer != nil {
		m.emit(trace.Death, node, -1, 0, "radio off")
	}
}

// Suspend puts node's radio to sleep: a reversible silence during which
// it neither transmits nor receives, with no event-cancellation finality
// — timers owned by the node keep their slots and fire on schedule (their
// handlers see the radio down). Suspending a dead or already-sleeping
// node is a no-op. emul.Machine.Suspend calls it for churn (duty-cycle
// sleep, departures).
func (m *Medium) Suspend(node int) {
	if !m.alive[node] || (m.asleep != nil && m.asleep[node]) {
		return
	}
	if m.asleep == nil {
		m.asleep = make([]bool, m.nw.N())
	}
	m.asleep[node] = true
	if m.tracer != nil {
		m.emit(trace.Sleep, node, -1, 0, "radio sleep")
	}
}

// Resume wakes a suspended radio. With no packets in flight the resumed
// node is byte-identical to one that never slept: Suspend/Resume touch
// only the asleep flag, never the RNG, the ledger, or the kernel queue.
// Resuming a dead or awake node is a no-op.
func (m *Medium) Resume(node int) {
	if !m.alive[node] || m.asleep == nil || !m.asleep[node] {
		return
	}
	m.asleep[node] = false
	if m.tracer != nil {
		m.emit(trace.Wake, node, -1, 0, "radio wake")
	}
}

// Suspended reports whether node's radio is asleep (alive but silenced).
func (m *Medium) Suspended(node int) bool {
	return m.asleep != nil && m.asleep[node] && m.alive[node]
}

// Alive reports whether node's radio is still up (sleeping counts as
// alive — the silence is reversible).
func (m *Medium) Alive(node int) bool { return m.alive[node] }

// liveAt is the transmission/reception gate: up and not asleep, or
// expiring at this very instant (the dying gasp).
func (m *Medium) liveAt(node int) bool {
	if m.alive[node] {
		return m.asleep == nil || !m.asleep[node]
	}
	return m.gasp != nil && m.gasp[node] >= 0 && m.kernel.Now() <= m.gasp[node]
}

// SetReceiver installs the function that consumes every delivered packet,
// replacing any previous one: recv(to, pkt) runs at receiver to. A nil
// receiver makes every node deaf (each still pays receive energy for the
// packets that arrive — the radio hardware ran either way).
func (m *Medium) SetReceiver(recv func(to int, pkt Packet)) { m.recv = recv }

// delivery is a pooled in-flight transmission: one scheduled kernel event
// that delivers a packet to every surviving receiver, in ascending
// neighbor-ID order. fire is bound to run once, when the record
// is first allocated, so the hot path schedules fan-out with zero
// per-packet allocations (no closure, no per-neighbor Packet copy).
//
// to is read-only: on a lossless broadcast it is the sender's CSR row
// itself. Filtered lists are built in own, the record's private buffer,
// so nothing is ever appended into a row of the network.
type delivery struct {
	m    *Medium
	pkt  Packet
	to   []int32
	own  []int32
	fire func()
}

// newDelivery takes a record off the free list or allocates one.
func (m *Medium) newDelivery() *delivery {
	if n := len(m.freeDel); n > 0 {
		d := m.freeDel[n-1]
		m.freeDel[n-1] = nil
		m.freeDel = m.freeDel[:n-1]
		return d
	}
	d := &delivery{m: m}
	d.fire = d.run
	return d
}

// run executes the delivery event and returns the record to the pool.
// Per-receiver liveness is judged here, at delivery time, exactly as the
// per-neighbor events it replaces did.
func (d *delivery) run() {
	for _, to := range d.to {
		d.m.deliver(int(to), d.pkt)
	}
	d.pkt = Packet{}
	d.to = nil
	d.m.freeDel = append(d.m.freeDel, d)
}

// Broadcast transmits a packet of the given size from node from to all of
// its one-hop neighbors. On a lossy medium each neighbor draws its own
// loss decision, in ascending ID order; the survivors share one delivery
// event at TxLatency(size), which delivers to each of them in ascending ID
// order. Without loss that event walks the sender's neighbor row in place.
// Returns the number of neighbors the packet was queued for (i.e., not
// dropped).
func (m *Medium) Broadcast(from int, size int64, payload any) int {
	if size < 0 {
		panic(fmt.Sprintf("radio: negative packet size %d", size))
	}
	if !m.liveAt(from) {
		return 0
	}
	m.sent++
	m.ledger.Charge(from, cost.Tx, size)
	if m.tracer != nil {
		m.emit(trace.Tx, from, -1, size, "broadcast")
	}
	d := m.newDelivery()
	d.to = m.nw.Neighbors(from)
	if m.channel != nil {
		kept := d.own[:0]
		for _, nbr := range d.to {
			if m.channel.Lost(from, int(nbr), size) {
				m.dropped++
				if m.tracer != nil {
					m.emit(trace.Drop, int(nbr), from, size, "lost")
				}
				continue
			}
			kept = append(kept, nbr)
		}
		d.own, d.to = kept, kept
	}
	queued := len(d.to)
	if queued == 0 {
		d.to = nil
		m.freeDel = append(m.freeDel, d)
		return 0
	}
	d.pkt = Packet{From: from, Size: size, Payload: payload}
	m.kernel.After(m.latency(size), d.fire)
	return queued
}

// Unicast transmits to a single one-hop neighbor. It panics if to is not a
// neighbor of from: the disk model has no long links, so routing layers
// must decompose paths into hops before calling down here.
func (m *Medium) Unicast(from, to int, size int64, payload any) bool {
	if size < 0 {
		panic(fmt.Sprintf("radio: negative packet size %d", size))
	}
	if !m.isNeighbor(from, to) {
		panic(fmt.Sprintf("radio: unicast %d->%d between non-neighbors", from, to))
	}
	if !m.liveAt(from) {
		return false
	}
	m.sent++
	m.ledger.Charge(from, cost.Tx, size)
	if m.tracer != nil {
		m.emit(trace.Tx, from, to, size, "unicast")
	}
	if m.channel != nil && m.channel.Lost(from, to, size) {
		m.dropped++
		if m.tracer != nil {
			m.emit(trace.Drop, to, from, size, "lost")
		}
		return false
	}
	d := m.newDelivery()
	d.pkt = Packet{From: from, Size: size, Payload: payload}
	d.own = append(d.own[:0], int32(to))
	d.to = d.own
	m.kernel.After(m.latency(size), d.fire)
	return true
}

// latency is every delivery's delay: the cost model's transmission
// latency for size units.
func (m *Medium) latency(size int64) sim.Time {
	return sim.Time(m.ledger.Model().TxLatency(size))
}

// isNeighbor binary-searches from's adjacency list, which NewMedium
// verified is strictly ascending.
func (m *Medium) isNeighbor(from, to int) bool {
	_, ok := slices.BinarySearch(m.nw.Neighbors(from), int32(to))
	return ok
}

func (m *Medium) deliver(to int, pkt Packet) {
	if !m.liveAt(to) {
		// The receiver died or went to sleep while the packet was in
		// flight: no Rx charge (the radio is off), no receiver call,
		// counted as a drop.
		m.dropped++
		if m.tracer != nil {
			detail := "dead receiver"
			if m.alive[to] {
				detail = "asleep receiver"
			}
			m.emit(trace.Drop, to, pkt.From, pkt.Size, detail)
		}
		return
	}
	m.delivered++
	m.ledger.Charge(to, cost.Rx, pkt.Size)
	if m.tracer != nil {
		m.emit(trace.Rx, to, pkt.From, pkt.Size, "")
	}
	if m.recv != nil {
		m.recv(to, pkt)
	}
}

// Network returns the deployment the medium runs over.
func (m *Medium) Network() *deploy.Network { return m.nw }

// Kernel returns the simulation kernel driving deliveries.
func (m *Medium) Kernel() *sim.Kernel { return m.kernel }

// Ledger returns the energy ledger the medium charges.
func (m *Medium) Ledger() *cost.Ledger { return m.ledger }

// Stats reports cumulative traffic counters: broadcasts/unicasts initiated,
// per-neighbor deliveries, and per-neighbor drops.
func (m *Medium) Stats() (sent, delivered, dropped int64) {
	return m.sent, m.delivered, m.dropped
}
