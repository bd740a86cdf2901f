package fault

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wsnva/internal/sim"
)

// TestRandomValidation drives every rejected edge: validation must error —
// not clamp, not panic — because a silently repaired knob produces sweeps
// that look plausible and mean nothing.
func TestRandomValidation(t *testing.T) {
	cases := []struct {
		name     string
		n        int
		fraction float64
		window   sim.Time
	}{
		{"negative n", -1, 0.1, 10},
		{"NaN fraction", 64, math.NaN(), 10},
		{"negative fraction", 64, -0.1, 10},
		{"fraction above one", 64, 1.0001, 10},
		{"infinite fraction", 64, math.Inf(1), 10},
		{"zero window", 64, 0.1, 0},
		{"negative window", 64, 0.1, -5},
	}
	for _, tc := range cases {
		if s, err := Random(tc.n, tc.fraction, tc.window, 1); err == nil {
			t.Errorf("%s: accepted (schedule %v)", tc.name, s)
		}
	}
}

// TestRandomValidInputs covers the accepted boundary points and the
// MustRandom equivalence on them.
func TestRandomValidInputs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n        int
		fraction float64
		kills    int
	}{
		{"zero n", 0, 0.5, 0},
		{"zero fraction", 64, 0, 0},
		{"full fraction", 10, 1, 10},
		{"tiny fraction rounds up", 64, 0.001, 1},
	} {
		s, err := Random(tc.n, tc.fraction, 10, 42)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(s) != tc.kills {
			t.Errorf("%s: %d crashes, want %d", tc.name, len(s), tc.kills)
		}
		must := MustRandom(tc.n, tc.fraction, 10, 42)
		if len(must) != len(s) {
			t.Errorf("%s: MustRandom disagrees with Random", tc.name)
		}
		for i := range s {
			if must[i] != s[i] {
				t.Errorf("%s: MustRandom crash %d = %v, Random %v", tc.name, i, must[i], s[i])
			}
		}
	}
}

// TestMustRandomPanics: the panic path must actually fire for invalid
// inputs, since experiment code relies on it to catch bad sweep constants.
func TestMustRandomPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRandom accepted a NaN fraction")
		}
	}()
	MustRandom(64, math.NaN(), 10, 1)
}

// TestRandomNestedPrefix re-pins the sweep property the validation refactor
// must not disturb: the crash set at a smaller fraction is a subset of the
// set at a larger one, with identical times.
func TestRandomNestedPrefix(t *testing.T) {
	small := MustRandom(64, 0.1, 40, 7)
	large := MustRandom(64, 0.3, 40, 7)
	at := make(map[int]sim.Time, len(large))
	for _, c := range large {
		at[c.Node] = c.At
	}
	for _, c := range small {
		got, ok := at[c.Node]
		if !ok {
			t.Errorf("node %d crashes at fraction 0.1 but not 0.3", c.Node)
		} else if got != c.At {
			t.Errorf("node %d crash time moved %d -> %d when fraction grew", c.Node, c.At, got)
		}
	}
}

// TestGilbertElliottValidate walks the parameter edges.
func TestGilbertElliottValidate(t *testing.T) {
	if err := DefaultBurst().Validate(); err != nil {
		t.Fatalf("default burst invalid: %v", err)
	}
	bad := []GilbertElliott{
		{PGoodBad: math.NaN()},
		{PGoodBad: -0.1},
		{PGoodBad: 1.5},
		{PBadGood: math.Inf(1)},
		{LossGood: 1},                            // a channel that loses everything forever
		{PGoodBad: 0.1, PBadGood: 0, LossBad: 1}, // absorbing fully-lossy Bad state
		{PGoodBad: 0.1, PBadGood: 0.2, LossBad: math.NaN()},
	}
	for i, g := range bad {
		if g.Validate() == nil {
			t.Errorf("case %d (%+v): accepted", i, g)
		}
	}
	ok := []GilbertElliott{
		{}, // lossless chain
		{PGoodBad: 0.1, PBadGood: 0, LossBad: 0.9}, // absorbing but not fully lossy
		{LossGood: 0.5}, // plain Bernoulli in disguise
	}
	for i, g := range ok {
		if err := g.Validate(); err != nil {
			t.Errorf("case %d (%+v): rejected: %v", i, g, err)
		}
	}
}

// TestGilbertElliottMeanLoss checks the stationary rate against the
// closed form on the default channel and the degenerate chains.
func TestGilbertElliottMeanLoss(t *testing.T) {
	g := DefaultBurst()
	piBad := g.PGoodBad / (g.PGoodBad + g.PBadGood)
	want := (1-piBad)*g.LossGood + piBad*g.LossBad
	if got := g.MeanLoss(); math.Abs(got-want) > 1e-12 {
		t.Errorf("default burst mean loss %v, want %v", got, want)
	}
	if got := (GilbertElliott{LossGood: 0.2}).MeanLoss(); got != 0.2 {
		t.Errorf("chain that never leaves Good: mean %v, want 0.2", got)
	}
	if got := (GilbertElliott{PGoodBad: 0.5, LossBad: 0.7}).MeanLoss(); got != 0.7 {
		t.Errorf("chain absorbing into Bad: mean %v, want 0.7", got)
	}
}

// TestBurstChannelDeterministic: the same seed replays the same loss
// sequence, and different seeds diverge.
func TestBurstChannelDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		c := DefaultBurst().Process(seed)
		seq := make([]bool, 4096)
		for i := range seq {
			seq[i] = c.Lost(0, 1, 1)
		}
		return seq
	}
	a, b := run(9), run(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := run(10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 9 and 10 produced identical 4096-draw sequences")
	}
}

// TestBurstChannelClusters: the defining property against Bernoulli — the
// empirical loss rate tracks the stationary rate, but the conditional
// probability of losing the attempt after a loss is far higher than the
// marginal rate (losses cluster in fades).
func TestBurstChannelClusters(t *testing.T) {
	c := DefaultBurst().Process(3)
	const draws = 200000
	losses, pairs, lossThenLoss := 0, 0, 0
	prev := false
	for i := 0; i < draws; i++ {
		lost := c.Lost(0, 1, 1)
		if lost {
			losses++
		}
		if i > 0 {
			pairs++
			if prev && lost {
				lossThenLoss++
			}
		}
		prev = lost
	}
	rate := float64(losses) / draws
	mean := DefaultBurst().MeanLoss()
	if math.Abs(rate-mean) > 0.01 {
		t.Errorf("empirical rate %v far from stationary %v", rate, mean)
	}
	condAfterLoss := float64(lossThenLoss) / float64(losses)
	if condAfterLoss < 2*rate {
		t.Errorf("losses do not cluster: P(loss|loss) = %v vs marginal %v", condAfterLoss, rate)
	}
}

// TestInjectorFail covers the public immediate-kill entry: marks the node
// dead, notifies targets once, and ignores repeats.
func TestInjectorFail(t *testing.T) {
	k := sim.New()
	in := NewInjector(k, 4)
	var killed []int
	tgt := TargetFunc(func(node int) { killed = append(killed, node) })
	in.Fail(2, tgt)
	in.Fail(2, tgt) // repeat is a no-op
	if in.Alive(2) {
		t.Error("node 2 alive after Fail")
	}
	if in.Killed() != 1 || len(killed) != 1 || killed[0] != 2 {
		t.Errorf("killed=%d targets=%v, want one kill of node 2", in.Killed(), killed)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Fail accepted an out-of-range node")
		}
	}()
	in.Fail(4, tgt)
}

// recorder is a Suspender/Target that logs calls for assertion.
type recorder struct{ log []string }

func (r *recorder) Kill(node int)    { r.log = append(r.log, fmt.Sprintf("kill %d", node)) }
func (r *recorder) Suspend(node int) { r.log = append(r.log, fmt.Sprintf("suspend %d", node)) }
func (r *recorder) Resume(node int)  { r.log = append(r.log, fmt.Sprintf("resume %d", node)) }

func TestInjectorSuspendResume(t *testing.T) {
	k := sim.New()
	in := NewInjector(k, 4)
	var r recorder
	in.Suspend(2, &r)
	if !in.Alive(2) || !in.Asleep(2) || in.Up(2) {
		t.Fatalf("suspended: Alive=%v Asleep=%v Up=%v, want true/true/false", in.Alive(2), in.Asleep(2), in.Up(2))
	}
	if in.Sleeping() != 1 {
		t.Errorf("Sleeping() = %d, want 1", in.Sleeping())
	}
	in.Suspend(2, &r) // idempotent: no second target call
	in.Resume(2, &r)
	if in.Asleep(2) || !in.Up(2) || in.Sleeping() != 0 {
		t.Errorf("resumed: Asleep=%v Up=%v Sleeping=%d", in.Asleep(2), in.Up(2), in.Sleeping())
	}
	in.Resume(2, &r) // idempotent
	want := []string{"suspend 2", "resume 2"}
	if fmt.Sprint(r.log) != fmt.Sprint(want) {
		t.Errorf("target calls %v, want %v", r.log, want)
	}
}

func TestInjectorSuspendKeepsOwnedEvents(t *testing.T) {
	// Unlike kill, suspend must not cancel the node's owned events —
	// that is the "no event-cancellation finality" contract.
	k := sim.New()
	in := NewInjector(k, 2)
	fired := false
	k.AtOwned(10, 1, func() { fired = true })
	in.Suspend(1)
	k.Run()
	if !fired {
		t.Error("suspend cancelled an owned event")
	}
}

func TestInjectorDeathAbsorbsSleep(t *testing.T) {
	k := sim.New()
	in := NewInjector(k, 3)
	in.Suspend(1)
	in.Fail(1)
	if in.Asleep(1) || in.Sleeping() != 0 {
		t.Errorf("dead node: Asleep=%v Sleeping=%d, want false/0", in.Asleep(1), in.Sleeping())
	}
	// Suspend/Resume on the dead node are no-ops.
	var r recorder
	in.Suspend(1, &r)
	in.Resume(1, &r)
	if len(r.log) != 0 {
		t.Errorf("dead node reached targets: %v", r.log)
	}
}

func TestInjectorSuspendRangePanics(t *testing.T) {
	k := sim.New()
	in := NewInjector(k, 2)
	for _, f := range []func(){func() { in.Suspend(7) }, func() { in.Resume(-1) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range suspend/resume did not panic")
				}
			}()
			f()
		}()
	}
}

// TestBernoulliChannel: the channel makes exactly the draw rng.Float64() < p
// per attempt, draws nothing at p = 0, and rejects a p outside [0,1), NaN,
// or a positive p without a random source.
func TestBernoulliChannel(t *testing.T) {
	ref := rand.New(rand.NewSource(5))
	c := NewBernoulli(0.3, rand.New(rand.NewSource(5)))
	for i := 0; i < 1000; i++ {
		if got, want := c.Lost(i, i+1, 1), ref.Float64() < 0.3; got != want {
			t.Fatalf("draw %d = %v, want %v", i, got, want)
		}
	}
	rng := rand.New(rand.NewSource(5))
	idle := NewBernoulli(0, rng)
	for i := 0; i < 10; i++ {
		if idle.Lost(0, 1, 1) {
			t.Fatal("a zero-loss channel lost an attempt")
		}
	}
	if got, want := rng.Float64(), rand.New(rand.NewSource(5)).Float64(); got != want {
		t.Error("a zero-loss channel consumed its random source")
	}
	for name, f := range map[string]func(){
		"p=1":        func() { NewBernoulli(1, rng) },
		"p<0":        func() { NewBernoulli(-0.1, rng) },
		"p NaN":      func() { NewBernoulli(math.NaN(), rng) },
		"nil source": func() { NewBernoulli(0.1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}
