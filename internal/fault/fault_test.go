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

// TestScheduleArm pins the arming contract: crashes fire in normalized
// order whatever order the slice lists them in — equal-time crashes in
// node order, a node's first crash only — each before an event scheduled
// at the same instant after arming, and a node outside [0, n) panics.
func TestScheduleArm(t *testing.T) {
	k := sim.New()
	var log []string
	s := Schedule{{Node: 3, At: 5}, {Node: 1, At: 5}, {Node: 2, At: 2}, {Node: 1, At: 9}}
	s.Arm(k, 4, func(node int) { log = append(log, fmt.Sprintf("kill %d@%d", node, k.Now())) })
	k.At(5, func() { log = append(log, "event@5") })
	k.At(2, func() { log = append(log, "event@2") })
	k.Run()
	want := []string{"kill 2@2", "event@2", "kill 1@5", "kill 3@5", "event@5"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("fired %v, want %v", log, want)
	}
	if s[0] != (Crash{Node: 3, At: 5}) || len(s) != 4 {
		t.Errorf("Arm reordered its receiver: %v", s)
	}
	for _, node := range []int{4, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Arm accepted node %d of 4", node)
				}
			}()
			At(Crash{Node: node, At: 1}).Arm(sim.New(), 4, func(int) {})
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
