package program

import (
	"strconv"
	"strings"
	"testing"
)

// nullFx is an Effector that records calls.
type nullFx struct {
	sends  int
	exfils int
	comps  int64
	senses int64
}

func (f *nullFx) Send(level int, size int64, payload any) { f.sends++ }
func (f *nullFx) Exfiltrate(result any)                   { f.exfils++ }
func (f *nullFx) Compute(units int64)                     { f.comps += units }
func (f *nullFx) Sense(units int64)                       { f.senses += units }

// one instantiates spec on a single node driven by fx.
func one[S any](spec *Spec[S], fx Effector) *Instance[S] {
	return &New(spec, 1, func(int) Effector { return fx })[0]
}

type counter struct {
	n  int
	on bool
}

func counterSpec() *Spec[counter] {
	return &Spec[counter]{
		Title: "counter",
		Init: func(states []counter) {
			for i := range states {
				states[i] = counter{on: true}
			}
		},
		Rules: []Rule[counter]{
			{
				Name:      "tick",
				Condition: "on and n < 3",
				Effect:    "n++",
				Guard:     func(s *counter, _ *Env) bool { return s.on && s.n < 3 },
				Action:    func(s *counter, _ *Env, fx Effector) { s.n++; fx.Compute(1) },
			},
			{
				Name:      "stop",
				Condition: "n = 3",
				Effect:    "on = false",
				Guard:     func(s *counter, _ *Env) bool { return s.on && s.n == 3 },
				Action:    func(s *counter, _ *Env, fx Effector) { s.on = false },
			},
		},
	}
}

func TestRunToQuiescence(t *testing.T) {
	fx := &nullFx{}
	inst := one(counterSpec(), fx)
	fired := inst.RunToQuiescence()
	if fired != 4 {
		t.Errorf("fired %d rules, want 4 (3 ticks + stop)", fired)
	}
	if inst.State.n != 3 || inst.State.on {
		t.Errorf("final state n=%d on=%v", inst.State.n, inst.State.on)
	}
	if fx.comps != 3 {
		t.Errorf("compute units = %d", fx.comps)
	}
	if total, _ := Fired([]Instance[counter]{*inst}); total != 4 {
		t.Errorf("Fired() = %d", total)
	}
	// Already quiescent: nothing fires.
	if inst.Step() {
		t.Error("quiescent instance should not fire")
	}
}

func TestFiredByRule(t *testing.T) {
	insts := New(counterSpec(), 3, func(int) Effector { return &nullFx{} })
	insts[0].RunToQuiescence()
	insts[2].RunToQuiescence()
	total, byRule := Fired(insts)
	if len(byRule) != 2 {
		t.Fatalf("got %d rule counters", len(byRule))
	}
	if total != 8 || byRule[0] != 6 || byRule[1] != 2 {
		t.Errorf("total %d, counts %v; want 8, [6 2]", total, byRule)
	}
	// Instances share one counter array but never each other's slots.
	if n, _ := Fired(insts[1:2]); n != 0 {
		t.Errorf("idle instance fired %d rules", n)
	}
}

func TestInitRunsOncePerRun(t *testing.T) {
	calls := 0
	spec := &Spec[int]{
		Title: "ids",
		Init: func(states []int) {
			calls++
			for i := range states {
				states[i] = 10 * i
			}
		},
	}
	insts := New(spec, 4, func(int) Effector { return &nullFx{} })
	if calls != 1 {
		t.Errorf("Init ran %d times, want once", calls)
	}
	for i := range insts {
		if *insts[i].State != 10*i {
			t.Errorf("node %d state %d, want %d", i, *insts[i].State, 10*i)
		}
	}
}

func TestRulePriorityOrder(t *testing.T) {
	type ab struct{ a, b bool }
	var fired []string
	spec := &Spec[ab]{
		Title: "priority",
		Init:  func(states []ab) { states[0] = ab{true, true} },
		Rules: []Rule[ab]{
			{Name: "first", Guard: func(s *ab, _ *Env) bool { return s.a },
				Action: func(s *ab, _ *Env, fx Effector) { fired = append(fired, "first"); s.a = false }},
			{Name: "second", Guard: func(s *ab, _ *Env) bool { return s.b },
				Action: func(s *ab, _ *Env, fx Effector) { fired = append(fired, "second"); s.b = false }},
		},
	}
	one(spec, &nullFx{}).RunToQuiescence()
	if len(fired) != 2 || fired[0] != "first" || fired[1] != "second" {
		t.Errorf("firing order = %v", fired)
	}
}

func TestFireHookSeesNodeAndRule(t *testing.T) {
	var got []string
	insts := New(counterSpec(), 2, func(int) Effector { return &nullFx{} })
	SetFireHook(insts, func(node int, rule string) {
		got = append(got, rule+"@"+strconv.Itoa(node))
	})
	insts[1].RunToQuiescence()
	insts[0].Step()
	want := "tick@1 tick@1 tick@1 stop@1 tick@0"
	if strings.Join(got, " ") != want {
		t.Errorf("hook saw %q, want %q", strings.Join(got, " "), want)
	}
}

func TestLivelockPanics(t *testing.T) {
	spec := &Spec[struct{}]{
		Title: "livelock",
		Rules: []Rule[struct{}]{{
			Name:   "forever",
			Guard:  func(*struct{}, *Env) bool { return true },
			Action: func(*struct{}, *Env, Effector) {},
		}},
	}
	inst := one(spec, &nullFx{})
	defer func() {
		if recover() == nil {
			t.Error("livelock should panic")
		}
	}()
	inst.RunToQuiescence()
}

func TestInboxSemantics(t *testing.T) {
	var e Env
	if e.PeekMsg() != nil || e.InboxLen() != 0 {
		t.Error("fresh inbox should be empty")
	}
	e.Deliver("a")
	e.Deliver("b")
	if e.InboxLen() != 2 {
		t.Error("inbox should hold 2")
	}
	if e.PeekMsg().(string) != "a" {
		t.Error("peek should see oldest")
	}
	if e.TakeMsg().(string) != "a" {
		t.Error("take order wrong")
	}
	e.Deliver("c")
	if e.InboxLen() != 2 || e.TakeMsg().(string) != "b" || e.TakeMsg().(string) != "c" {
		t.Error("take order wrong after interleaved deliver")
	}
	defer func() {
		if recover() == nil {
			t.Error("TakeMsg on empty inbox should panic")
		}
	}()
	e.TakeMsg()
}

// TestInboxReusesBackingArray: once the queue empties, delivering and
// taking reuse its backing array, so a node's steady message traffic
// allocates nothing.
func TestInboxReusesBackingArray(t *testing.T) {
	var e Env
	var msg any = &struct{ x int }{1}
	for i := 0; i < 4; i++ {
		e.Deliver(msg)
	}
	for e.InboxLen() > 0 {
		e.TakeMsg()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Deliver(msg)
		e.Deliver(msg)
		e.TakeMsg()
		e.TakeMsg()
	})
	if allocs != 0 {
		t.Errorf("deliver-then-take allocates %.2f times per cycle, want 0", allocs)
	}
}

func TestOnMessageDrivesRules(t *testing.T) {
	spec := &Spec[int]{
		Title: "echo",
		Rules: []Rule[int]{{
			Name:  "recv",
			Guard: func(_ *int, e *Env) bool { return e.PeekMsg() != nil },
			Action: func(got *int, e *Env, fx Effector) {
				e.TakeMsg()
				*got++
				fx.Send(1, 1, nil)
			},
		}},
	}
	fx := &nullFx{}
	inst := one(spec, fx)
	inst.OnMessage("x")
	inst.OnMessage("y")
	if *inst.State != 2 || fx.sends != 2 {
		t.Errorf("got=%d sends=%d", *inst.State, fx.sends)
	}
}

func TestListingFormat(t *testing.T) {
	spec := &Spec[struct{}]{
		Title: "demo",
		Rules: []Rule[struct{}]{{
			Name:      "r",
			Condition: "x = true",
			Effect:    "line1\nline2",
			Guard:     func(*struct{}, *Env) bool { return false },
			Action:    func(*struct{}, *Env, Effector) {},
		}},
	}
	listing := spec.Listing()
	if !strings.Contains(listing, "program demo") {
		t.Error("listing missing title")
	}
	if !strings.Contains(listing, "Condition : x = true") {
		t.Error("listing missing condition")
	}
	if !strings.Contains(listing, "line1\n            line2") {
		t.Errorf("multi-line action not indented:\n%s", listing)
	}
}
