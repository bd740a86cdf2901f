// Package check replays a trace against the simulation's conservation
// laws. It is the correctness substrate the observability layer buys:
// instead of asserting on a handful of final counters, a test attaches a
// tracer, runs a full fault/battery sweep round, and asks Run whether the
// event stream itself is lawful.
//
// The rules (see Run) encode invariants every engine in this repo must
// uphold: deliveries pair with sends, receptions pair with transmissions
// and never beat the channel's minimum latency, the ledger total equals
// the sum of traced charges, dead nodes fall silent, level-k traffic
// stays inside level-k blocks, and simulated time never runs backwards.
//
// Run never panics, whatever the input — adversarial and fuzzed traces
// must be flagged, not crash the checker. The conservation rules assume a
// complete trace, every event the run emitted, which is what a
// trace.Tracer keeps; on a truncated stream (a slice of it, a cut file)
// the pairing rules would report false orphans.
package check

import (
	"fmt"
	"sort"
	"strconv"

	"wsnva/internal/sim"
	"wsnva/internal/trace"
)

// Options configures a replay.
type Options struct {
	// Side is the virtual grid side, used to range-check coordinates on
	// level-tagged traffic. 0 disables coordinate range checks.
	Side int
	// LedgerTotal is the final ledger total to reconcile against the sum
	// of traced Charge events. Negative skips the conservation rule (for
	// traces recorded without a ledger tracer attached).
	LedgerTotal int64
	// MinDelay is the radio's minimum transmission latency. Every Rx —
	// and every dead-receiver Drop, which is judged at delivery time —
	// must land at least MinDelay after the earliest matching Tx. Set it
	// to the engine's lookahead to verify the conservative-window law
	// offline: no delivery lands in a shard's executed past, because
	// nothing arrives earlier than send + lookahead. Zero still forbids
	// receptions that precede their transmission.
	MinDelay sim.Time
	// RecoveryWindow, when positive, arms the bounded-recovery rule:
	// every Churn event must be answered by a Recover event (whose
	// Bytes field names the disturbance time it answers) no later than
	// the disturbance time plus the window. Zero disables the rule.
	RecoveryWindow sim.Time
	// RepairHops, when positive, arms the repair-locality rule: every
	// Repair event must carry Level <= RepairHops (its emitter's cell
	// distance from the disturbance) and must occur while a disturbance
	// is outstanding — repair traffic may not originate outside the
	// disturbance's k-hop neighborhood, nor without a disturbance.
	// Zero disables the rule.
	RepairHops int
	// MaxViolations caps the report; 0 means 100.
	MaxViolations int
}

// Violation is one broken invariant, anchored to the event that exposed it.
type Violation struct {
	Rule   string // "orphan-deliver", "orphan-rx", "early-delivery", "conservation", "dead-after-death", "charge-after-depletion", "level-edge", "time-regression", "bounded-recovery", "repair-locality"
	Seq    int64
	At     sim.Time
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s at seq=%d t=%d: %s", v.Rule, v.Seq, v.At, v.Detail)
}

// pairKey identifies a message flow for send/deliver pairing. Sends and
// retries credit the key; each delivery consumes one credit.
type pairKey struct {
	from, to string
	bytes    int64
}

// identity names the node an event belongs to for liveness tracking: the
// integer id when set, else the display name. That is the identity
// convention trace.Tracer's builders write: EmitNode sets a physical
// node's ID, EmitCell a cell's grid index, or -1 beside physical nodes
// so that its "<c,r>" name identifies it, and EmitRun -1; the kernel
// probe's events carry their owning node's ID.
func identity(e trace.Event) string {
	if e.ID >= 0 {
		return "#" + strconv.Itoa(e.ID)
	}
	return e.Node
}

// activeKind reports whether an event of this kind represents the node
// doing something, as opposed to something happening to or about it.
// Active kinds are forbidden after the node's Death event; passive ones
// (drops addressed to it, cancellations of its timers, its own death and
// depletion notices, kernel bookkeeping, phase markers) are expected.
//
// Charge is deliberately not active: the abstract cost plane charges XY
// routes hop by hop without consulting liveness, so a crashed relay's
// ledger slot legitimately keeps accruing Rx energy. The guarantee the
// engines actually make is narrower — the battery bank vetoes charges
// after depletion — and the charge-after-depletion rule enforces exactly
// that, keyed on Deplete events rather than Death.
func activeKind(k trace.Kind) bool {
	switch k {
	case trace.Send, trace.Deliver, trace.Compute, trace.Sense, trace.RuleFire,
		trace.Exfiltrate, trace.Tx, trace.Rx, trace.Retry, trace.Ack,
		trace.GroupOp:
		return true
	}
	return false
}

// Run replays events in order and returns every violation found, capped
// at Options.MaxViolations. An empty result means the trace is lawful.
//
// Rules:
//   - time-regression: At must be non-decreasing in event order.
//   - orphan-deliver: every Deliver must consume a credit from an earlier
//     Send or Retry with the same (from, to, bytes).
//   - orphan-rx: every radio Rx must follow a Tx from its peer with the
//     same payload size.
//   - early-delivery: every Rx, and every dead-receiver Drop, lands no
//     earlier than the peer's earliest matching Tx plus MinDelay — the
//     trace-level form of the sharded engine's conservative-window
//     guarantee that no delivery is scheduled into executed time.
//   - dead-after-death: after a node's Death event, it emits no active
//     events at any strictly later time. (Events at the death timestamp
//     itself are lawful: depletion fires synchronously inside a granted
//     charge, so the dying gasp — the crossing Charge, and any rule
//     firings already underway in the same instant — lands at the death
//     time.)
//   - charge-after-depletion: after a node's Deplete event, its ledger
//     slot accrues no further Charge at any strictly later time — the
//     battery bank must veto them. (Crash deaths without a bank carry no
//     such guarantee; see activeKind.)
//   - level-edge: a Send or Retry tagged level k must connect endpoints
//     in the same level-k block (coordinates equal after shifting off k
//     bits), with coordinates inside the grid when Side is set.
//   - conservation: the sum of Charge event payloads equals LedgerTotal.
//   - bounded-recovery (RecoveryWindow > 0): every Churn event is answered
//     by a Recover event carrying the disturbance time in Bytes, at most
//     RecoveryWindow after the disturbance; a Recover answering no open
//     disturbance is itself flagged.
//   - repair-locality (RepairHops > 0): every Repair event occurs while a
//     disturbance is open and carries Level (cell distance from the
//     disturbance) at most RepairHops.
func Run(events []trace.Event, o Options) []Violation {
	max := o.MaxViolations
	if max <= 0 {
		max = 100
	}
	var out []Violation
	add := func(rule string, e trace.Event, format string, args ...any) {
		if len(out) < max {
			out = append(out, Violation{Rule: rule, Seq: e.Seq, At: e.At, Detail: fmt.Sprintf(format, args...)})
		}
	}

	credits := make(map[pairKey]int)
	txSeen := make(map[string]map[int64]sim.Time) // node -> size -> earliest Tx time
	deaths := make(map[string]sim.Time)
	depletions := make(map[string]sim.Time)
	var openChurn map[sim.Time]trace.Event // disturbance time -> first Churn event
	var chargeSum int64
	var lastAt sim.Time
	for _, e := range events {
		if e.At < lastAt {
			add("time-regression", e, "t=%d after t=%d", e.At, lastAt)
		} else {
			lastAt = e.At
		}

		if deathAt, dead := deaths[identity(e)]; dead && e.At > deathAt && activeKind(e.Kind) {
			add("dead-after-death", e, "node %s died at t=%d but emitted %s at t=%d",
				identity(e), deathAt, e.Kind, e.At)
		}
		if depAt, dep := depletions[identity(e)]; dep && e.At > depAt && e.Kind == trace.Charge {
			add("charge-after-depletion", e, "node %s depleted at t=%d but was charged at t=%d",
				identity(e), depAt, e.At)
		}

		switch e.Kind {
		case trace.Send, trace.Retry:
			if e.Peer != "" {
				credits[pairKey{from: e.Node, to: e.Peer, bytes: e.Bytes}]++
			}
			checkLevelEdge(e, o, add)
		case trace.Deliver:
			if e.Peer != "" {
				k := pairKey{from: e.Peer, to: e.Node, bytes: e.Bytes}
				if credits[k] <= 0 {
					add("orphan-deliver", e, "deliver %s -> %s bytes=%d without matching send", e.Peer, e.Node, e.Bytes)
				} else {
					credits[k]--
				}
			}
		case trace.Tx:
			sizes := txSeen[e.Node]
			if sizes == nil {
				sizes = make(map[int64]sim.Time)
				txSeen[e.Node] = sizes
			}
			if at, ok := sizes[e.Bytes]; !ok || e.At < at {
				sizes[e.Bytes] = e.At
			}
		case trace.Rx:
			txAt, ok := txSeen[e.Peer][e.Bytes]
			if e.Peer == "" || !ok {
				add("orphan-rx", e, "rx at %s from %s bytes=%d without matching tx", e.Node, e.Peer, e.Bytes)
			} else if e.At < txAt+o.MinDelay {
				add("early-delivery", e, "rx at %s from %s bytes=%d at t=%d beats earliest tx t=%d + min delay %d",
					e.Node, e.Peer, e.Bytes, e.At, txAt, o.MinDelay)
			}
		case trace.Drop:
			// Lost-in-flight drops are emitted at the send instant and
			// carry no delivery time; only dead- and asleep-receiver
			// drops are judged where the packet would have landed.
			if (e.Detail == "dead receiver" || e.Detail == "asleep receiver") && e.Peer != "" {
				if txAt, ok := txSeen[e.Peer][e.Bytes]; ok && e.At < txAt+o.MinDelay {
					add("early-delivery", e, "%s drop at %s from %s bytes=%d at t=%d beats earliest tx t=%d + min delay %d",
						e.Detail, e.Node, e.Peer, e.Bytes, e.At, txAt, o.MinDelay)
				}
			}
		case trace.Charge:
			chargeSum += e.Bytes
		case trace.Death:
			if _, ok := deaths[identity(e)]; !ok {
				deaths[identity(e)] = e.At
			}
		case trace.Deplete:
			if _, ok := depletions[identity(e)]; !ok {
				depletions[identity(e)] = e.At
			}
		case trace.Churn:
			if o.RecoveryWindow > 0 || o.RepairHops > 0 {
				if openChurn == nil {
					openChurn = make(map[sim.Time]trace.Event)
				}
				if _, ok := openChurn[e.At]; !ok {
					openChurn[e.At] = e
				}
			}
		case trace.Repair:
			if o.RepairHops > 0 {
				if len(openChurn) == 0 {
					add("repair-locality", e, "repair from %s with no open disturbance", identity(e))
				} else if e.Level > o.RepairHops {
					add("repair-locality", e, "repair from %s %d cells from the disturbance exceeds bound %d",
						identity(e), e.Level, o.RepairHops)
				}
			}
		case trace.Recover:
			if o.RecoveryWindow > 0 || o.RepairHops > 0 {
				churnAt := sim.Time(e.Bytes)
				if _, ok := openChurn[churnAt]; !ok {
					add("bounded-recovery", e, "recover answers no open disturbance at t=%d", churnAt)
					break
				}
				delete(openChurn, churnAt)
				if o.RecoveryWindow > 0 && e.At > churnAt+o.RecoveryWindow {
					add("bounded-recovery", e, "disturbance at t=%d recovered at t=%d, past window %d",
						churnAt, e.At, o.RecoveryWindow)
				}
			}
		}
	}
	if o.RecoveryWindow > 0 && len(openChurn) > 0 {
		open := make([]sim.Time, 0, len(openChurn))
		for at := range openChurn {
			open = append(open, at)
		}
		sort.Slice(open, func(i, j int) bool { return open[i] < open[j] })
		for _, at := range open {
			add("bounded-recovery", openChurn[at], "disturbance at t=%d never recovered", at)
		}
	}
	if o.LedgerTotal >= 0 && chargeSum != o.LedgerTotal && len(out) < max {
		out = append(out, Violation{Rule: "conservation",
			Detail: fmt.Sprintf("traced charges sum to %d, ledger total is %d", chargeSum, o.LedgerTotal)})
	}
	return out
}

// checkLevelEdge enforces the hierarchy's routing discipline on a Send or
// Retry: level-k traffic flows between a block member and its level-k
// leader, so both endpoints shifted right by k must coincide. Events
// without full coordinates (physical-plane sends) are skipped; garbage
// levels are flagged, never shifted blindly.
func checkLevelEdge(e trace.Event, o Options, add func(string, trace.Event, string, ...any)) {
	if e.Level <= 0 {
		return
	}
	if e.Col < 0 || e.Row < 0 || e.PeerCol < 0 || e.PeerRow < 0 {
		return
	}
	if e.Level > 30 {
		add("level-edge", e, "implausible level %d", e.Level)
		return
	}
	if o.Side > 0 && (e.Col >= o.Side || e.Row >= o.Side || e.PeerCol >= o.Side || e.PeerRow >= o.Side) {
		add("level-edge", e, "coordinates <%d,%d>/<%d,%d> outside %dx%d grid",
			e.Col, e.Row, e.PeerCol, e.PeerRow, o.Side, o.Side)
		return
	}
	if e.Col>>e.Level != e.PeerCol>>e.Level || e.Row>>e.Level != e.PeerRow>>e.Level {
		add("level-edge", e, "level-%d message crosses block boundary: <%d,%d> -> <%d,%d>",
			e.Level, e.Col, e.Row, e.PeerCol, e.PeerRow)
	}
}
