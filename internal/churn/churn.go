// Package churn models topology churn — the arrivals, departures, and
// duty-cycle sleep/wake transitions a long-lived deployment sees — as a
// typed, deterministic schedule of first-class simulation events.
//
// The package is deliberately engine-agnostic: it depends only on the
// simulation clock. The emulation layer (emul.RunChurn) replays a
// Schedule against the physical machine with incremental routing repair
// after every disturbance; the sharded kernel (shard.Config.Churn)
// replays the same Schedule as pre-scheduled per-shard events, oracle-
// differentially. Both consume the normalized order defined here, so a
// schedule means the same thing everywhere.
//
// Sleep and Wake are the reversible pair (the radio's tri-state suspend
// gate); Depart and Arrive are the long-lived pair (a node leaving the
// network, and a node appearing — or returning — at its position and
// announcing itself). At the transport layer all four are suspensions
// and resumptions of the same radio; the distinction matters to the
// layers above, which treat an arrival as a trigger to seed the node's
// base table and re-teach its neighborhood.
package churn

import (
	"fmt"
	"math/rand"
	"sort"

	"wsnva/internal/sim"
)

// Op is a churn transition.
type Op int

const (
	// Sleep suspends a node's radio reversibly (duty-cycle off phase).
	Sleep Op = iota
	// Wake resumes a sleeping radio (duty-cycle on phase).
	Wake
	// Depart removes a node from the network for an extended absence.
	Depart
	// Arrive powers a node on at its position: it seeds its base table
	// and announces itself to its neighborhood.
	Arrive
	numOps
)

func (o Op) String() string {
	switch o {
	case Sleep:
		return "sleep"
	case Wake:
		return "wake"
	case Depart:
		return "depart"
	case Arrive:
		return "arrive"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Down reports whether the op silences the node (Sleep, Depart) rather
// than restoring it (Wake, Arrive).
func (o Op) Down() bool { return o == Sleep || o == Depart }

// Event is one timed transition of one node.
type Event struct {
	Node int
	At   sim.Time
	Op   Op
}

// Schedule is a set of churn events. The zero value (nil) means no
// churn. Builders return normalized schedules; hand-built ones should be
// passed through Normalize before replay so equal-time events apply in
// the defined (At, Node, Op) order on every engine.
type Schedule []Event

// Normalize returns a copy sorted by (At, Node, Op) — the replay order
// every engine uses, making equal-time batches deterministic.
func (s Schedule) Normalize() Schedule {
	out := append(Schedule(nil), s...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// Validate checks every event against a deployment of n nodes: node ids
// in range, times non-negative, ops known. It returns an error rather
// than clamping — a silently repaired schedule produces sweeps that look
// plausible and mean nothing.
func (s Schedule) Validate(n int) error {
	for i, e := range s {
		if e.Node < 0 || e.Node >= n {
			return fmt.Errorf("churn: event %d targets node %d outside [0,%d)", i, e.Node, n)
		}
		if e.At < 0 {
			return fmt.Errorf("churn: event %d at negative time %d", i, e.At)
		}
		if e.Op < 0 || e.Op >= numOps {
			return fmt.Errorf("churn: event %d has unknown op %d", i, int(e.Op))
		}
	}
	return nil
}

// Batch is every event sharing one disturbance instant.
type Batch struct {
	At     sim.Time
	Events []Event
}

// Batches groups a schedule into equal-time disturbance batches in
// normalized order. A batch is the unit of repair: the emulation harness
// applies all of a batch's transitions, then re-converges the touched
// neighborhoods once.
func (s Schedule) Batches() []Batch {
	norm := s.Normalize()
	var out []Batch
	for _, e := range norm {
		if len(out) == 0 || out[len(out)-1].At != e.At {
			out = append(out, Batch{At: e.At})
		}
		last := &out[len(out)-1]
		last.Events = append(last.Events, e)
	}
	return out
}

// Horizon returns the time of the last event, or 0 for an empty
// schedule.
func (s Schedule) Horizon() sim.Time {
	var h sim.Time
	for _, e := range s {
		if e.At > h {
			h = e.At
		}
	}
	return h
}

// Merge combines schedules into one normalized schedule.
func Merge(parts ...Schedule) Schedule {
	var out Schedule
	for _, p := range parts {
		out = append(out, p...)
	}
	return out.Normalize()
}

// Settle closes a schedule out at instant at, which must not precede its
// last event: every node the schedule leaves down (asleep or departed)
// arrives at at, so a replay ends with every radio up. It returns the
// closed schedule and how many nodes it brought back; a schedule that
// leaves nobody down comes back unchanged.
func (s Schedule) Settle(at sim.Time) (Schedule, int) {
	if at < s.Horizon() {
		panic(fmt.Sprintf("churn: settling at %d, before the schedule's last event at %d", at, s.Horizon()))
	}
	down := map[int]bool{}
	for _, e := range s.Normalize() {
		down[e.Node] = e.Op.Down()
	}
	var wake []int
	for node, d := range down {
		if d {
			wake = append(wake, node)
		}
	}
	if len(wake) == 0 {
		return s, 0
	}
	return Merge(s, Arrivals(at, wake...)), len(wake)
}

// Departures schedules the nodes to depart at the given instant.
func Departures(at sim.Time, nodes ...int) Schedule {
	out := make(Schedule, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, Event{Node: n, At: at, Op: Depart})
	}
	return out.Normalize()
}

// Arrivals schedules the nodes to arrive at the given instant.
func Arrivals(at sim.Time, nodes ...int) Schedule {
	out := make(Schedule, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, Event{Node: n, At: at, Op: Arrive})
	}
	return out.Normalize()
}

// DutyCycle builds the periodic sleep/wake schedule of a radio duty
// cycle: each listed node repeats an on-phase of onFor followed by an
// off-phase of period-onFor, until horizon. Phases are staggered evenly
// across the listed nodes so the network never sleeps all at once. It
// panics on a non-positive period, an onFor outside (0, period), or a
// negative horizon — schedule knobs are validated, never repaired.
func DutyCycle(nodes []int, period, onFor, horizon sim.Time) Schedule {
	if period <= 0 {
		panic(fmt.Sprintf("churn: duty-cycle period %d must be positive", period))
	}
	if onFor <= 0 || onFor >= period {
		panic(fmt.Sprintf("churn: duty-cycle on-phase %d outside (0,%d)", onFor, period))
	}
	if horizon < 0 {
		panic(fmt.Sprintf("churn: negative horizon %d", horizon))
	}
	var out Schedule
	for i, n := range nodes {
		phase := sim.Time(0)
		if len(nodes) > 0 {
			phase = sim.Time(int64(i) * int64(period) / int64(len(nodes)))
		}
		for cycle := sim.Time(0); ; cycle += period {
			sleepAt := phase + cycle + onFor
			if sleepAt > horizon {
				break
			}
			out = append(out, Event{Node: n, At: sleepAt, Op: Sleep})
			wakeAt := phase + cycle + period
			if wakeAt <= horizon {
				out = append(out, Event{Node: n, At: wakeAt, Op: Wake})
			}
		}
	}
	return out.Normalize()
}

// Poisson builds a random churn schedule: transition instants arrive as
// a Poisson process of the given rate (expected events per unit time)
// over [1, horizon], each toggling one uniformly chosen node — an awake
// node sleeps, a sleeping node wakes. The result is a deterministic
// function of (n, rate, horizon, seed), so sweeps replay bit-for-bit.
// It panics on a non-positive n, rate, or horizon.
func Poisson(n int, rate float64, horizon sim.Time, seed int64) Schedule {
	if n <= 0 {
		panic(fmt.Sprintf("churn: poisson over %d nodes", n))
	}
	if rate <= 0 {
		panic(fmt.Sprintf("churn: poisson rate %v must be positive", rate))
	}
	if horizon <= 0 {
		panic(fmt.Sprintf("churn: poisson horizon %d must be positive", horizon))
	}
	rng := rand.New(rand.NewSource(seed))
	asleep := make([]bool, n)
	var out Schedule
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := sim.Time(t) + 1
		if at > horizon {
			break
		}
		node := rng.Intn(n)
		op := Sleep
		if asleep[node] {
			op = Wake
		}
		asleep[node] = !asleep[node]
		out = append(out, Event{Node: node, At: at, Op: op})
	}
	return out.Normalize()
}
