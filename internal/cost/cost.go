// Package cost implements the paper's uniform cost model (Section 3.2):
// transmitting, receiving, or computing on one unit of data costs one unit
// of energy, and one unit of latency is the time taken to complete p
// computations or transmit b units of data, where p and b are the node's
// processing speed and transmission bandwidth.
//
// Energy and latency are exact integer unit counts, never floats, so every
// accounting identity in the test suite holds exactly. The Model struct
// generalizes the unit model with per-operation weights so that a user whose
// deployment "necessitates a different set of cost functions" (Section 3.2)
// can plug one in; the zero-configuration NewUniform matches the paper.
package cost

import (
	"fmt"
	"sort"

	"wsnva/internal/sim"
	"wsnva/internal/trace"
)

// Energy is an amount of energy in model units.
type Energy int64

// Latency is an amount of simulated time in model units.
type Latency int64

// Op identifies the kind of primitive operation being charged.
type Op int

// The chargeable operation kinds of the cost model.
const (
	Tx      Op = iota // transmit one data unit one hop
	Rx                // receive one data unit
	Compute           // process one data unit
	Sense             // sample the sensing interface once
	Idle              // idle listening per latency unit (0 in the paper's model)
	numOps
)

func (o Op) String() string {
	switch o {
	case Tx:
		return "tx"
	case Rx:
		return "rx"
	case Compute:
		return "compute"
	case Sense:
		return "sense"
	case Idle:
		return "idle"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Model holds per-operation energy weights and the latency divisors p
// (processing speed, data units per latency unit) and b (bandwidth, data
// units per latency unit).
type Model struct {
	// EnergyPerUnit[op] is the energy charged per data unit for op.
	EnergyPerUnit [numOps]Energy
	// ProcSpeed is p: computations completed per latency unit.
	ProcSpeed int64
	// Bandwidth is b: data units transmitted per latency unit.
	Bandwidth int64
}

// NewUniform returns the paper's uniform cost model: one energy unit per
// data unit for tx, rx, and compute; sensing charged like a computation;
// idle listening free; p = b = 1 so one latency unit moves or processes one
// data unit.
func NewUniform() *Model {
	m := &Model{ProcSpeed: 1, Bandwidth: 1}
	m.EnergyPerUnit[Tx] = 1
	m.EnergyPerUnit[Rx] = 1
	m.EnergyPerUnit[Compute] = 1
	m.EnergyPerUnit[Sense] = 1
	m.EnergyPerUnit[Idle] = 0
	return m
}

// Steps returns the step profile of m: the same energy weights, with
// Bandwidth = ProcSpeed = 2^50. It is the synchronous (TDMA-style) regime
// of Section 2 on the one discrete-event machine, where a latency unit is
// the "step" of Section 4.1:
//
//   - moving 1 to 2^50 data units one hop takes one latency unit, and so
//     does computing on them;
//   - zero units take zero time.
//
// synth's labeling run on the machine discards Compute's latency, and no
// message it sends is empty (a summary is at least two units), so its
// completion time under this profile counts the hops on its critical path.
func (m *Model) Steps() *Model {
	s := *m
	s.Bandwidth, s.ProcSpeed = 1<<50, 1<<50
	return &s
}

// Validate reports an error if the model is unusable (non-positive divisors
// or negative energies).
func (m *Model) Validate() error {
	if m.ProcSpeed <= 0 {
		return fmt.Errorf("cost: processing speed must be positive, got %d", m.ProcSpeed)
	}
	if m.Bandwidth <= 0 {
		return fmt.Errorf("cost: bandwidth must be positive, got %d", m.Bandwidth)
	}
	for op := Op(0); op < numOps; op++ {
		if m.EnergyPerUnit[op] < 0 {
			return fmt.Errorf("cost: negative energy weight for %v", op)
		}
	}
	return nil
}

// EnergyOf returns the energy charged for performing op on units data units.
func (m *Model) EnergyOf(op Op, units int64) Energy {
	if units < 0 {
		panic(fmt.Sprintf("cost: negative units %d", units))
	}
	return m.EnergyPerUnit[op] * Energy(units)
}

// TxLatency returns the latency of transmitting units data units one hop:
// ⌈units/b⌉ latency units.
func (m *Model) TxLatency(units int64) Latency {
	return ceilDiv(units, m.Bandwidth)
}

// ComputeLatency returns the latency of processing units data units:
// ⌈units/p⌉ latency units.
func (m *Model) ComputeLatency(units int64) Latency {
	return ceilDiv(units, m.ProcSpeed)
}

func ceilDiv(a, b int64) Latency {
	if a < 0 {
		panic(fmt.Sprintf("cost: negative units %d", a))
	}
	return Latency((a + b - 1) / b)
}

// Ledger accumulates per-node energy charges for a network of n nodes. It is
// the bookkeeping half of the virtual architecture's "cost functions and
// performance metrics" component: every primitive and middleware operation
// charges the ledger, and the performance metrics (total energy, energy
// balance, lifetime) are computed from it.
//
// Ledger is not safe for concurrent use; the goroutine-per-node runtime
// aggregates into per-node counters and folds them in afterwards.
type Ledger struct {
	model  *Model
	energy []Energy
	ops    []int64 // per-op unit counts, for diagnostics
	meter  Meter   // nil: the unhooked fast path
	tracer *trace.Tracer
	clock  func() sim.Time // stamps Charge events; nil stamps 0
}

// Meter observes every charge before it lands — the attachment point for
// closed-loop energy depletion (internal/battery). Absorb is called with
// the node, the operation, and the energy about to be charged; returning
// false vetoes the charge entirely (the node is dead: its radio and CPU
// are off, so neither energy nor op units are recorded). A Meter may react
// to the charge it grants — the battery layer fail-stops the node the
// instant the granted charge crosses its budget — but must not recursively
// charge the same ledger.
type Meter interface {
	Absorb(node int, op Op, e Energy) bool
}

// NewLedger returns a ledger for n nodes charging under model m.
func NewLedger(m *Model, n int) *Ledger {
	if n <= 0 {
		panic(fmt.Sprintf("cost: ledger needs positive node count, got %d", n))
	}
	return &Ledger{model: m, energy: make([]Energy, n), ops: make([]int64, numOps)}
}

// Model returns the cost model the ledger charges under.
func (l *Ledger) Model() *Model { return l.model }

// SetMeter attaches a charge meter (nil detaches). With no meter attached
// Charge pays exactly one pointer compare — the zero-overhead guarantee
// that keeps battery-free runs byte-identical to the pre-battery build.
func (l *Ledger) SetMeter(m Meter) { l.meter = m }

// Meter returns the attached meter, or nil.
func (l *Ledger) Meter() Meter { return l.meter }

// SetTracer attaches an observability tracer (nil detaches): every granted
// non-zero charge emits a trace.Charge event whose Bytes field carries the
// energy. clock supplies the simulated timestamp — pass the kernel's Now;
// nil stamps 0 (the concurrent runtime has no global clock). Like the
// meter, a detached tracer costs one pointer compare per charge.
func (l *Ledger) SetTracer(t *trace.Tracer, clock func() sim.Time) {
	l.tracer = t
	l.clock = clock
}

// N returns the number of nodes tracked.
func (l *Ledger) N() int { return len(l.energy) }

// Charge records that node performed op on units data units and returns the
// energy charged. With a meter attached the charge is offered to it first;
// a vetoed charge (the node's battery is depleted) records nothing and
// returns 0.
func (l *Ledger) Charge(node int, op Op, units int64) Energy {
	e := l.model.EnergyOf(op, units)
	if l.meter != nil && !l.meter.Absorb(node, op, e) {
		return 0
	}
	l.energy[node] += e
	l.ops[op] += units
	if l.tracer != nil && e != 0 {
		var at sim.Time
		if l.clock != nil {
			at = l.clock()
		}
		l.tracer.EmitEvent(trace.Event{At: at, Kind: trace.Charge,
			Node: trace.NodeName(node), ID: node,
			Col: -1, Row: -1, PeerCol: -1, PeerRow: -1,
			Bytes: int64(e), Detail: op.String()})
	}
	return e
}

// ChargeTransfer charges a one-hop transfer of units data units: Tx at the
// sender and Rx at the receiver. It returns the combined energy.
func (l *Ledger) ChargeTransfer(from, to int, units int64) Energy {
	return l.Charge(from, Tx, units) + l.Charge(to, Rx, units)
}

// Energy returns the accumulated energy of a node.
func (l *Ledger) Energy(node int) Energy { return l.energy[node] }

// Units returns the total data units charged for op across all nodes.
func (l *Ledger) Units(op Op) int64 { return l.ops[op] }

// Reset zeroes all accumulated charges.
func (l *Ledger) Reset() {
	for i := range l.energy {
		l.energy[i] = 0
	}
	for i := range l.ops {
		l.ops[i] = 0
	}
}

// Add folds another ledger's charges into l. Both ledgers must track the
// same number of nodes.
func (l *Ledger) Add(other *Ledger) {
	if len(other.energy) != len(l.energy) {
		panic(fmt.Sprintf("cost: ledger size mismatch %d vs %d", len(other.energy), len(l.energy)))
	}
	for i, e := range other.energy {
		l.energy[i] += e
	}
	for i, u := range other.ops {
		l.ops[i] += u
	}
}

// Total returns the network-wide energy total. Unlike Metrics it neither
// sorts nor allocates, so per-round loops can poll it cheaply.
func (l *Ledger) Total() Energy {
	var t Energy
	for _, e := range l.energy {
		t += e
	}
	return t
}

// MaxEnergy returns the hottest node's accumulated energy without the
// sort-and-copy Metrics performs — the value lifetime loops poll every
// round.
func (l *Ledger) MaxEnergy() Energy {
	var m Energy
	for _, e := range l.energy {
		if e > m {
			m = e
		}
	}
	return m
}

// Metrics is the set of system-level performance metrics Section 2 lists as
// derivable from the cost model.
type Metrics struct {
	Total   Energy  // total energy spent by the network
	Max     Energy  // maximum per-node energy (hot spot)
	Min     Energy  // minimum per-node energy
	Mean    float64 // mean per-node energy
	Balance float64 // Max/Mean; 1.0 is perfectly balanced, larger is worse
	P95     Energy  // 95th percentile per-node energy
}

// Metrics computes the summary metrics over all nodes.
func (l *Ledger) Metrics() Metrics {
	var m Metrics
	sorted := make([]Energy, len(l.energy))
	copy(sorted, l.energy)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	m.Min = sorted[0]
	m.Max = sorted[len(sorted)-1]
	for _, e := range sorted {
		m.Total += e
	}
	m.Mean = float64(m.Total) / float64(len(sorted))
	if m.Mean > 0 {
		m.Balance = float64(m.Max) / m.Mean
	}
	idx := (95*len(sorted) + 99) / 100
	if idx > 0 {
		idx--
	}
	m.P95 = sorted[idx]
	return m
}

// Lifetime returns the number of identical charge rounds the network
// survives before the first node exhausts budget, assuming each round costs
// what the ledger currently records per node. This is the "system lifetime"
// metric of Section 2 under the common first-node-death definition. It
// returns 0 if the ledger has a node that already exceeds the budget, and -1
// (unbounded) if no node consumed anything.
func (l *Ledger) Lifetime(budget Energy) int64 {
	var maxE Energy
	for _, e := range l.energy {
		if e > maxE {
			maxE = e
		}
	}
	if maxE == 0 {
		return -1
	}
	return int64(budget / maxE)
}
