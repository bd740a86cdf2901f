package churn

import (
	"reflect"
	"sort"
	"testing"

	"wsnva/internal/sim"
)

func TestNormalizeOrdersByAtNodeOp(t *testing.T) {
	s := Schedule{
		{Node: 3, At: 10, Op: Wake},
		{Node: 1, At: 10, Op: Sleep},
		{Node: 0, At: 5, Op: Depart},
		{Node: 3, At: 10, Op: Sleep},
	}
	got := s.Normalize()
	want := Schedule{
		{Node: 0, At: 5, Op: Depart},
		{Node: 1, At: 10, Op: Sleep},
		{Node: 3, At: 10, Op: Sleep},
		{Node: 3, At: 10, Op: Wake},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalized %v, want %v", got, want)
	}
	// Normalize copies: the input must be untouched.
	if s[0].Node != 3 {
		t.Error("Normalize mutated its receiver")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
		n    int
		ok   bool
	}{
		{"empty", nil, 4, true},
		{"good", Schedule{{Node: 3, At: 0, Op: Arrive}}, 4, true},
		{"node high", Schedule{{Node: 4, At: 0, Op: Sleep}}, 4, false},
		{"node negative", Schedule{{Node: -1, At: 0, Op: Sleep}}, 4, false},
		{"time negative", Schedule{{Node: 0, At: -2, Op: Sleep}}, 4, false},
		{"bad op", Schedule{{Node: 0, At: 0, Op: Op(99)}}, 4, false},
	}
	for _, c := range cases {
		if err := c.s.Validate(c.n); (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestBatchesGroupEqualTimes(t *testing.T) {
	s := Schedule{
		{Node: 2, At: 10, Op: Sleep},
		{Node: 0, At: 5, Op: Depart},
		{Node: 1, At: 10, Op: Sleep},
	}
	b := s.Batches()
	if len(b) != 2 || b[0].At != 5 || b[1].At != 10 {
		t.Fatalf("batches: %+v", b)
	}
	if len(b[0].Events) != 1 || len(b[1].Events) != 2 {
		t.Fatalf("batch sizes: %+v", b)
	}
	if b[1].Events[0].Node != 1 || b[1].Events[1].Node != 2 {
		t.Errorf("batch order: %+v", b[1].Events)
	}
}

func TestHorizonAndMerge(t *testing.T) {
	a := Departures(7, 1, 0)
	b := Arrivals(3, 2)
	m := Merge(a, b)
	if m.Horizon() != 7 {
		t.Errorf("horizon %d, want 7", m.Horizon())
	}
	if len(m) != 3 || m[0].At != 3 || m[0].Op != Arrive {
		t.Errorf("merged: %v", m)
	}
	if m[1].Node != 0 || m[2].Node != 1 {
		t.Errorf("departures not node-ordered: %v", m)
	}
}

func TestDutyCycleAlternatesAndStaysInHorizon(t *testing.T) {
	s := DutyCycle([]int{0, 1}, 10, 6, 40)
	if err := s.Validate(2); err != nil {
		t.Fatal(err)
	}
	// Per node: strictly alternating Sleep/Wake starting with Sleep,
	// all within the horizon.
	perNode := map[int][]Event{}
	for _, e := range s {
		if e.At > 40 || e.At < 0 {
			t.Errorf("event %v outside horizon", e)
		}
		perNode[e.Node] = append(perNode[e.Node], e)
	}
	for n, evs := range perNode {
		for i, e := range evs {
			want := Sleep
			if i%2 == 1 {
				want = Wake
			}
			if e.Op != want {
				t.Errorf("node %d event %d is %v, want %v (%v)", n, i, e.Op, want, evs)
			}
			if i > 0 && evs[i-1].At >= e.At {
				t.Errorf("node %d events not time-ordered: %v", n, evs)
			}
		}
	}
	// Stagger: node 1's first sleep is phase-shifted from node 0's.
	if perNode[0][0].At == perNode[1][0].At {
		t.Error("duty cycles not staggered")
	}
}

func TestDutyCycleValidation(t *testing.T) {
	for _, f := range []func(){
		func() { DutyCycle([]int{0}, 0, 1, 10) },
		func() { DutyCycle([]int{0}, 10, 0, 10) },
		func() { DutyCycle([]int{0}, 10, 10, 10) },
		func() { DutyCycle([]int{0}, 10, 5, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid duty cycle did not panic")
				}
			}()
			f()
		}()
	}
}

func TestPoissonDeterministicAndToggling(t *testing.T) {
	a := Poisson(8, 0.5, 200, 42)
	b := Poisson(8, 0.5, 200, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a) == 0 {
		t.Fatal("rate 0.5 over 200 units produced no events")
	}
	if err := a.Validate(8); err != nil {
		t.Fatal(err)
	}
	// Replaying must keep every node's state consistent: a sleep only
	// hits an awake node, a wake only a sleeping one.
	asleep := make([]bool, 8)
	for _, e := range a {
		switch e.Op {
		case Sleep:
			if asleep[e.Node] {
				t.Fatalf("sleep of sleeping node: %v", e)
			}
			asleep[e.Node] = true
		case Wake:
			if !asleep[e.Node] {
				t.Fatalf("wake of awake node: %v", e)
			}
			asleep[e.Node] = false
		default:
			t.Fatalf("unexpected op %v", e.Op)
		}
	}
	if c := Poisson(8, 0.5, 200, 43); reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical schedules")
	}
	if h := a.Horizon(); h > 200 || h < 1 {
		t.Errorf("horizon %d outside (0,200]", h)
	}
}

func TestPoissonValidation(t *testing.T) {
	for _, f := range []func(){
		func() { Poisson(0, 1, 10, 1) },
		func() { Poisson(4, 0, 10, 1) },
		func() { Poisson(4, 1, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid poisson did not panic")
				}
			}()
			f()
		}()
	}
}

func TestOpStringAndDown(t *testing.T) {
	if Sleep.String() != "sleep" || Wake.String() != "wake" ||
		Depart.String() != "depart" || Arrive.String() != "arrive" {
		t.Error("op strings wrong")
	}
	if Op(99).String() == "" {
		t.Error("unknown op has empty string")
	}
	if !Sleep.Down() || !Depart.Down() || Wake.Down() || Arrive.Down() {
		t.Error("Down() classification wrong")
	}
	var s Schedule
	if s.Horizon() != sim.Time(0) {
		t.Error("empty horizon nonzero")
	}
}

// downAfter replays s batch by batch and returns the nodes it leaves
// down, in ascending order.
func downAfter(s Schedule) []int {
	down := map[int]bool{}
	for _, b := range s.Batches() {
		for _, e := range b.Events {
			down[e.Node] = e.Op.Down()
		}
	}
	var out []int
	for node := range down {
		if down[node] {
			out = append(out, node)
		}
	}
	sort.Ints(out)
	return out
}

func TestSettleWakesTheResidualSet(t *testing.T) {
	const horizon = sim.Time(400)
	cases := []struct {
		name     string
		s        Schedule
		residual int // nodes s leaves down; -1: any number
	}{
		// Nodes 3 and 4 (phases 24 and 32) sleep at 392 and 400 and
		// would wake past the horizon.
		{"duty cycle straddling the horizon", DutyCycle([]int{0, 1, 2, 3, 4, 5, 6, 7}, 64, 48, horizon), 2},
		{"poisson", Poisson(20, 0.2, horizon, 5), -1},
		{"departure without arrival", Merge(Departures(10, 3, 5), Arrivals(30, 3)), 1},
		{"empty", nil, 0},
	}
	for _, c := range cases {
		residual := downAfter(c.s)
		if c.residual >= 0 && len(residual) != c.residual {
			t.Errorf("%s: %d nodes left down %v, want %d", c.name, len(residual), residual, c.residual)
		}
		settled, woke := c.s.Settle(horizon + 1)
		if woke != len(residual) {
			t.Errorf("%s: Settle woke %d nodes, the schedule left %d down", c.name, woke, len(residual))
		}
		if left := downAfter(settled); len(left) != 0 {
			t.Errorf("%s: nodes %v still down after Settle", c.name, left)
		}
		if len(settled) != len(c.s)+woke {
			t.Errorf("%s: settled schedule has %d events, want %d + %d", c.name, len(settled), len(c.s), woke)
		}
		for i, node := range residual {
			e := settled[len(c.s)+i]
			if e.Node != node || e.At != horizon+1 || e.Op != Arrive {
				t.Errorf("%s: close-out event %d is %+v, want node %d arriving at %d", c.name, i, e, node, horizon+1)
			}
		}
	}
	if _, woke := Poisson(20, 0.2, horizon, 5).Settle(horizon + 1); woke == 0 {
		t.Error("the Poisson case leaves nobody down; it checks nothing")
	}
}

func TestSettleBeforeTheLastEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("settling before the last event did not panic")
		}
	}()
	Departures(10, 1).Settle(9)
}
