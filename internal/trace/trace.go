// Package trace is the structured observability layer for simulation
// runs: every subsystem — the kernel, the radio, the virtual machine, the
// cost ledger, the battery bank, the runtime engines — emits typed events
// carrying node identity, grid coordinates, hierarchy level, message
// bytes, and simulated time into an append-only log, and tools render
// timelines (cmd/tracecat), export JSONL (Encode/Decode), or replay the
// stream against conservation laws (trace/check).
//
// Tracing is opt-in and nil-safe: a nil *Tracer ignores every Emit, and
// every instrumentation site guards its event construction behind a nil
// check, so detached runs pay one pointer compare per site and stay
// byte-identical to an uninstrumented build. A Tracer is safe for
// concurrent use (the goroutine runtime emits from many goroutines).
package trace

import (
	"fmt"
	"strings"
	"sync"

	"wsnva/internal/sim"
)

// Kind classifies an event.
type Kind int

// Event kinds. The first block predates the structured layer and its
// values are load-bearing for old traces; new kinds are only ever appended.
const (
	Send Kind = iota // a message entered the network
	Deliver
	Compute
	Sense
	RuleFire
	Exfiltrate
	Protocol // runtime-system protocol event (election, adoption, ...)

	// Structured observability kinds.
	Schedule // sim: an event was queued (Bytes holds the target time)
	Fire     // sim: a queued event fired
	Cancel   // sim: a queued event was cancelled
	Tx       // radio: a transmission left a node
	Rx       // radio: a delivery reached a node
	Drop     // a delivery was lost, suppressed, or addressed to a dead node
	Retry    // ARQ retransmission attempt
	Ack      // ARQ acknowledgment charged
	Failover // leader-addressed traffic re-resolved to an acting leader
	GroupOp  // collective primitive invocation (sum, sort, rank)
	Phase    // driver phase boundary (round start/end, setup stages)
	Charge   // cost: an energy charge was granted (Bytes holds the energy)
	Deplete  // battery: a node's drain crossed its budget
	Death    // a node fail-stopped (crash or depletion)

	// Churn kinds (PR 8). Sleep/Wake are the radio's reversible
	// suspend/resume gate — unlike Death they do not end a node's
	// trace lifetime, so the dead-after-death rule ignores them.
	// Churn marks a disturbance batch (Bytes holds the batch size),
	// Repair a repair transmission seeded by it (Level holds the
	// emitter's cell distance from the disturbance), and Recover the
	// restoration of the recovery predicate (Bytes holds the
	// disturbance time it answers, for the bounded-recovery rule).
	Sleep
	Wake
	Churn
	Repair
	Recover
)

func (k Kind) String() string {
	switch k {
	case Send:
		return "send"
	case Deliver:
		return "deliver"
	case Compute:
		return "compute"
	case Sense:
		return "sense"
	case RuleFire:
		return "rule"
	case Exfiltrate:
		return "exfil"
	case Protocol:
		return "proto"
	case Schedule:
		return "sched"
	case Fire:
		return "fire"
	case Cancel:
		return "cancel"
	case Tx:
		return "tx"
	case Rx:
		return "rx"
	case Drop:
		return "drop"
	case Retry:
		return "retry"
	case Ack:
		return "ack"
	case Failover:
		return "failover"
	case GroupOp:
		return "group"
	case Phase:
		return "phase"
	case Charge:
		return "charge"
	case Deplete:
		return "deplete"
	case Death:
		return "death"
	case Sleep:
		return "sleep"
	case Wake:
		return "wake"
	case Churn:
		return "churn"
	case Repair:
		return "repair"
	case Recover:
		return "recover"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one recorded occurrence. Numeric fields that do not apply to a
// given kind hold -1 (identities, coordinates) or 0 (level, bytes); Seq is
// stamped by the tracer and is unique and monotone within one trace.
//
// Identity convention: ID is the subsystem's integer node index (grid
// index for virtual nodes, deployment index for physical ones) and Node
// its display form ("<2,3>" for virtual coordinates, "#17" for physical
// nodes). Events from the physical and virtual planes of one run never
// share an ID space on the same trace: physical emitters use ID, virtual
// emitters over a physical network use ID = -1 and coordinates only.
type Event struct {
	Seq     int64    `json:"seq"`
	At      sim.Time `json:"at"`
	Kind    Kind     `json:"kind"`
	Node    string   `json:"node,omitempty"`
	ID      int      `json:"id"`
	Col     int      `json:"col"`
	Row     int      `json:"row"`
	PeerCol int      `json:"pcol"`
	PeerRow int      `json:"prow"`
	Level   int      `json:"level"`
	Bytes   int64    `json:"bytes"`
	Peer    string   `json:"peer,omitempty"`
	Detail  string   `json:"detail,omitempty"`
}

// Describe renders the event's payload fields for human consumption:
// the detail string when present, otherwise whatever structured fields
// are set.
func (e Event) Describe() string {
	var b strings.Builder
	if e.Peer != "" {
		fmt.Fprintf(&b, "peer=%s", e.Peer)
	}
	if e.Level != 0 {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "level=%d", e.Level)
	}
	if e.Bytes != 0 {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "bytes=%d", e.Bytes)
	}
	if e.Detail != "" {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(e.Detail)
	}
	return b.String()
}

// Sink observes events live, as they are emitted, in emission order —
// the streaming counterpart of the log's after-the-fact Events(). A
// sink is called with the tracer's lock held, so implementations must
// be fast and must never block (hand the event to a buffered channel,
// drop on overflow); a slow sink stalls the simulation it watches.
type Sink interface {
	TraceEvent(Event)
}

// Tracer records every event of a run into an append-only log, so a
// trace is always complete — the precondition of the trace/check
// conservation rules. The zero value is not usable; nil is (as a
// disabled tracer).
type Tracer struct {
	mu   sync.Mutex
	log  []Event
	sink Sink
}

// SetSink attaches a live event sink (nil detaches). Every subsequent
// EmitEvent is forwarded to it, sequence-stamped, after landing in the
// log. Safe on a nil tracer.
func (t *Tracer) SetSink(s Sink) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = s
	t.mu.Unlock()
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// EmitEvent appends a structured event, stamping its sequence number with
// its index in the log. Safe on a nil tracer and for concurrent use.
func (t *Tracer) EmitEvent(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	e.Seq = int64(len(t.log))
	t.log = append(t.log, e)
	if t.sink != nil {
		t.sink.TraceEvent(e)
	}
	t.mu.Unlock()
}

// Count returns how many events of the kind were emitted. Safe on a nil
// tracer.
func (t *Tracer) Count(kind Kind) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for i := range t.log {
		if t.log[i].Kind == kind {
			n++
		}
	}
	return n
}

// Events returns a copy of the log, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.log...)
}

// Timeline renders events, one per line, in slice order.
func Timeline(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		fmt.Fprintf(&b, "t=%-6d %-8s %-8s %s\n", e.At, e.Kind, e.Node, e.Describe())
	}
	return b.String()
}

// kernelProbe adapts a Tracer to sim.Probe. The kernel cannot import this
// package (trace imports sim for sim.Time), so the adapter lives here and
// is attached with Kernel.SetProbe(trace.KernelProbe(t)).
type kernelProbe struct{ t *Tracer }

// KernelProbe returns a sim.Probe recording the kernel's scheduling
// activity: Schedule events carry the target time in Bytes (the event's At
// is the emission time, keeping traces time-monotone), Fire and Cancel
// carry the owner in ID.
func KernelProbe(t *Tracer) sim.Probe { return kernelProbe{t: t} }

func (p kernelProbe) EventScheduled(now, at sim.Time, owner int) {
	p.t.EmitEvent(Event{At: now, Kind: Schedule, ID: owner,
		Col: -1, Row: -1, PeerCol: -1, PeerRow: -1, Bytes: int64(at)})
}

func (p kernelProbe) EventFired(now sim.Time, owner int) {
	p.t.EmitEvent(Event{At: now, Kind: Fire, ID: owner,
		Col: -1, Row: -1, PeerCol: -1, PeerRow: -1})
}

func (p kernelProbe) EventCancelled(now sim.Time, owner int) {
	p.t.EmitEvent(Event{At: now, Kind: Cancel, ID: owner,
		Col: -1, Row: -1, PeerCol: -1, PeerRow: -1})
}
