// Package fault is the deterministic fault-injection layer over the DES
// kernel. The paper's premise is an unreliable substrate — "latency of
// message delivery is unpredictable ... some messages might even be
// dropped" — and its Section 5 protocols are supposed to survive worse:
// nodes that die mid-protocol. This package supplies the inputs of that
// stress; each engine owns the fail-stop they drive:
//
//   - crash schedules: fail-stop node deaths at scheduled sim.Times,
//     seed-derived random crash sets (nested as the crash fraction grows,
//     so sweeps are monotone by construction), and region-targeted kill
//     zones. Schedule.Arm schedules a schedule's crashes on a kernel, each
//     calling the engine's own kill (varch.Machine.Kill on the DES
//     machine, which silences the node and cancels its owned events).
//
//   - loss channels: the one loss decision every engine draws from, as an
//     independent coin, a Gilbert–Elliott burst chain, or counter-keyed
//     per-sender streams.
//
//   - a reliable-delivery policy: stop-and-wait ARQ with bounded retries
//     and capped exponential backoff, energy-accounted under the uniform
//     cost model. The policy itself lives here; internal/varch implements
//     it for Send and the collectives so that a program can opt into
//     reliability without changing a line of application code.
//
// Everything is deterministic under a fixed seed: schedules are pure
// functions of their inputs, and Arm schedules crashes in a fixed order,
// so tests can pin exact retry counts and failover outcomes.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"wsnva/internal/geom"
	"wsnva/internal/sim"
)

// Crash is one fail-stop event: node dies at time At and never recovers.
type Crash struct {
	Node int
	At   sim.Time
}

// Schedule is a set of crashes, ordered by (time, node). The zero value is
// the empty schedule (no faults).
type Schedule []Crash

// normalize sorts by (At, Node) and drops duplicate nodes (first crash
// wins — a node dies once).
func (s Schedule) normalize() Schedule {
	sort.Slice(s, func(i, j int) bool {
		if s[i].At != s[j].At {
			return s[i].At < s[j].At
		}
		return s[i].Node < s[j].Node
	})
	seen := make(map[int]bool, len(s))
	out := s[:0]
	for _, c := range s {
		if seen[c.Node] {
			continue
		}
		seen[c.Node] = true
		out = append(out, c)
	}
	return out
}

// At builds a schedule from explicit (node, time) pairs.
func At(crashes ...Crash) Schedule {
	return Schedule(crashes).normalize()
}

// Random derives a crash schedule from a seed: it kills ⌈fraction·n⌉ of n
// nodes, each at a time drawn uniformly from [1, window]. The victims are
// a prefix of a seed-derived permutation, so for a fixed seed the crash
// set at fraction p is a subset of the crash set at any p' > p — sweeps
// over the crash fraction degrade monotonically by construction.
//
// Inputs are validated, not clamped: a NaN, negative, or >1 fraction, a
// negative n, or a window < 1 returns an error, because a sweep that
// silently rounds a bad knob produces tables that look plausible and mean
// nothing.
func Random(n int, fraction float64, window sim.Time, seed int64) (Schedule, error) {
	if n < 0 {
		return nil, fmt.Errorf("fault: negative node count %d", n)
	}
	if math.IsNaN(fraction) {
		return nil, fmt.Errorf("fault: crash fraction is NaN")
	}
	if fraction < 0 || fraction > 1 {
		return nil, fmt.Errorf("fault: crash fraction %v out of [0,1]", fraction)
	}
	if window < 1 {
		return nil, fmt.Errorf("fault: crash window %d must be ≥ 1", window)
	}
	kills := int(fraction*float64(n) + 0.999999)
	if kills > n {
		kills = n
	}
	if kills == 0 {
		return nil, nil
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	// Crash times come from a second seeded stream keyed by victim identity,
	// not by prefix position, so growing the fraction never moves an
	// already-scheduled crash.
	s := make(Schedule, 0, kills)
	for _, node := range perm[:kills] {
		trng := rand.New(rand.NewSource(int64(uint64(seed) ^ uint64(node+1)*0x9e3779b97f4a7c15)))
		s = append(s, Crash{Node: node, At: 1 + sim.Time(trng.Int63n(int64(window)))})
	}
	return s.normalize(), nil
}

// MustRandom is Random for statically valid inputs (experiment sweeps,
// tests); it panics on error.
func MustRandom(n int, fraction float64, window sim.Time, seed int64) Schedule {
	s, err := Random(n, fraction, window, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// Region kills every grid cell inside the inclusive coordinate box
// [min, max] at time at — the correlated-failure mode (a fire, a flood, a
// dead power segment) that stresses hierarchies far harder than the same
// number of uniformly random deaths. Nodes are grid indices.
func Region(g *geom.Grid, min, max geom.Coord, at sim.Time) Schedule {
	var s Schedule
	for row := min.Row; row <= max.Row; row++ {
		for col := min.Col; col <= max.Col; col++ {
			c := geom.Coord{Col: col, Row: row}
			if g.InBounds(c) {
				s = append(s, Crash{Node: g.Index(c), At: at})
			}
		}
	}
	return s.normalize()
}

// Arm schedules every crash in s on k for a network of n nodes. Each
// crash fires as an unowned kernel event (a node does not own its own
// death) that calls kill with the node, the engine's fail-stop. Crashes
// are scheduled in normalized order, so equal-time crashes fire in node
// order, and each fires before any event scheduled at the same instant
// after Arm returns. Arm panics on a node outside [0, n).
func (s Schedule) Arm(k *sim.Kernel, n int, kill func(node int)) {
	for _, c := range append(Schedule(nil), s...).normalize() {
		if c.Node < 0 || c.Node >= n {
			panic(fmt.Sprintf("fault: crash for node %d outside [0,%d)", c.Node, n))
		}
		node := c.Node
		k.At(c.At, func() { kill(node) })
	}
}

// Reliability is the stop-and-wait ARQ policy for reliable delivery: after
// sending, the sender waits Timeout for an acknowledgment; on silence it
// retransmits, doubling the wait each attempt up to MaxBackoff, giving up
// after MaxRetries retransmissions. Every attempt pays the full route
// energy and a successful delivery pays AckSize units along the reverse
// route — the uniform cost model applied to the ARQ control traffic.
type Reliability struct {
	// MaxRetries bounds retransmissions per message (0 disables ARQ).
	MaxRetries int
	// Timeout is the wait before the first retransmission.
	Timeout sim.Time
	// MaxBackoff caps the exponential backoff; 0 means uncapped.
	MaxBackoff sim.Time
	// AckSize is the acknowledgment size in data units; 0 means 1.
	AckSize int64
}

// Enabled reports whether the policy retransmits at all.
func (r Reliability) Enabled() bool { return r.MaxRetries > 0 }

// DefaultReliability is the policy the experiments sweep: 3 retries,
// base timeout 8 latency units, backoff capped at 64, unit-sized acks.
func DefaultReliability() Reliability {
	return Reliability{MaxRetries: 3, Timeout: 8, MaxBackoff: 64, AckSize: 1}
}

// Backoff returns the wait before retransmission number attempt (1-based):
// Timeout·2^(attempt-1), capped at MaxBackoff.
func (r Reliability) Backoff(attempt int) sim.Time {
	if attempt < 1 {
		panic(fmt.Sprintf("fault: backoff attempt %d must be ≥ 1", attempt))
	}
	t := r.Timeout
	if t < 1 {
		t = 1
	}
	for i := 1; i < attempt; i++ {
		t *= 2
		if r.MaxBackoff > 0 && t >= r.MaxBackoff {
			return r.MaxBackoff
		}
	}
	if r.MaxBackoff > 0 && t > r.MaxBackoff {
		t = r.MaxBackoff
	}
	return t
}

// AckUnits returns the effective acknowledgment size.
func (r Reliability) AckUnits() int64 {
	if r.AckSize <= 0 {
		return 1
	}
	return r.AckSize
}

// Channel is the one loss decision every engine draws from: Lost is asked
// once per transmission attempt, in the engine's attempt order, and
// reports whether that attempt is lost. Bernoulli draws from a shared
// rand.Rand, BurstChannel runs one Gilbert–Elliott chain, and
// StreamChannel keys every draw to its sender's own counter, which makes
// the loss pattern schedule-independent for the sharded kernel.
type Channel interface {
	Lost(from, to int, size int64) bool
}

// Bernoulli loses every attempt independently with probability p, drawn
// from one seeded rand.Rand in attempt order. At p = 0 it draws nothing.
type Bernoulli struct {
	p   float64
	rng *rand.Rand
}

// NewBernoulli returns the independent-loss channel over rng. It panics on
// a p outside [0,1) or NaN, and on a positive p without a random source.
func NewBernoulli(p float64, rng *rand.Rand) *Bernoulli {
	if math.IsNaN(p) || p < 0 || p >= 1 {
		panic(fmt.Sprintf("fault: loss probability %v out of [0,1)", p))
	}
	if p > 0 && rng == nil {
		panic("fault: loss needs a random source")
	}
	return &Bernoulli{p: p, rng: rng}
}

// Lost implements Channel.
func (b *Bernoulli) Lost(_, _ int, _ int64) bool { return b.p > 0 && b.rng.Float64() < b.p }

// GilbertElliott parameterizes the classic two-state bursty-loss channel:
// a Markov chain alternating between a Good state (low loss) and a Bad
// state (high loss — a fade, a collision storm, an interferer). Unlike the
// Bernoulli model, losses cluster: the mean burst length is 1/PBadGood
// attempts, which is exactly the correlation stop-and-wait ARQ handles
// worst (consecutive retransmissions land in the same fade).
type GilbertElliott struct {
	// PGoodBad is the per-attempt probability of falling Good -> Bad.
	PGoodBad float64
	// PBadGood is the per-attempt probability of recovering Bad -> Good.
	PBadGood float64
	// LossGood and LossBad are the per-attempt loss probabilities inside
	// each state. LossGood is typically near 0 and LossBad near 1.
	LossGood, LossBad float64
}

// Validate reports an error for probabilities outside [0,1] (or NaN), or a
// chain that can enter the Bad state but never leave it.
func (g GilbertElliott) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"PGoodBad", g.PGoodBad}, {"PBadGood", g.PBadGood},
		{"LossGood", g.LossGood}, {"LossBad", g.LossBad},
	} {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: gilbert-elliott %s %v out of [0,1]", p.name, p.v)
		}
	}
	if g.LossGood >= 1 {
		return fmt.Errorf("fault: gilbert-elliott LossGood %v must be < 1", g.LossGood)
	}
	if g.PGoodBad > 0 && g.PBadGood == 0 && g.LossBad >= 1 {
		return fmt.Errorf("fault: gilbert-elliott chain absorbs into a fully lossy Bad state")
	}
	return nil
}

// Enabled reports whether the channel ever loses anything.
func (g GilbertElliott) Enabled() bool {
	return g.LossGood > 0 || (g.PGoodBad > 0 && g.LossBad > 0)
}

// MeanLoss returns the stationary loss rate of the chain — the Bernoulli
// rate a long-run average would measure, useful for like-for-like sweeps
// against the independent-loss model.
func (g GilbertElliott) MeanLoss() float64 {
	if g.PGoodBad == 0 {
		return g.LossGood
	}
	if g.PBadGood == 0 {
		return g.LossBad
	}
	piBad := g.PGoodBad / (g.PGoodBad + g.PBadGood)
	return (1-piBad)*g.LossGood + piBad*g.LossBad
}

// DefaultBurst is the burst channel the experiments sweep: rare fades
// (1.5% entry), mean burst length 8 attempts, near-perfect Good state and
// 90%-lossy Bad state. Stationary loss ≈ 10.8% — comparable to the middle
// of the Bernoulli sweep, but clustered.
func DefaultBurst() GilbertElliott {
	return GilbertElliott{PGoodBad: 0.015, PBadGood: 0.125, LossGood: 0.01, LossBad: 0.9}
}

// BurstChannel is a running Gilbert–Elliott process: one seeded RNG, one
// state bit, advanced once per transmission attempt. Deterministic under a
// fixed seed; not safe for concurrent use (the DES engine is serial).
type BurstChannel struct {
	params GilbertElliott
	rng    *rand.Rand
	bad    bool
}

// Process starts the chain in the Good state with a seeded RNG. It panics
// on invalid parameters; validate first where the inputs are not literals.
func (g GilbertElliott) Process(seed int64) *BurstChannel {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return &BurstChannel{params: g, rng: rand.New(rand.NewSource(seed))}
}

// Lost draws one transmission attempt: the chain advances one step, then
// the attempt is lost with the current state's loss probability. Two RNG
// draws per attempt, always, so the stream stays aligned whatever path the
// chain takes. One chain serves every link, so the endpoints and size are
// ignored.
func (c *BurstChannel) Lost(_, _ int, _ int64) bool {
	flip := c.rng.Float64()
	if c.bad {
		if flip < c.params.PBadGood {
			c.bad = false
		}
	} else if flip < c.params.PGoodBad {
		c.bad = true
	}
	p := c.params.LossGood
	if c.bad {
		p = c.params.LossBad
	}
	return c.rng.Float64() < p
}
