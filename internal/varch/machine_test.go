package varch

import (
	"testing"

	"wsnva/internal/cost"
	"wsnva/internal/geom"
	"wsnva/internal/sim"
	"wsnva/internal/trace"
)

func newVM(t *testing.T, side int) (*Machine, *sim.Kernel, *cost.Ledger) {
	t.Helper()
	g := geom.NewSquareGrid(side, float64(side))
	h := MustHierarchy(g)
	k := sim.New()
	l := cost.NewLedger(cost.NewUniform(), g.N())
	return NewMachine(h, k, l), k, l
}

// receiveAt installs a receiver that runs h for the deliveries to c only.
func receiveAt(vm *Machine, c geom.Coord, h func(Message)) {
	idx := vm.Grid().Index(c)
	vm.SetReceiver(func(to int, m Message) {
		if to == idx {
			h(m)
		}
	})
}

func TestSendDeliversWithManhattanLatency(t *testing.T) {
	vm, k, _ := newVM(t, 4)
	src := geom.Coord{Col: 0, Row: 0}
	dst := geom.Coord{Col: 3, Row: 2}
	var at sim.Time = -1
	var got Message
	receiveAt(vm, dst, func(m Message) { at = k.Now(); got = m })
	vm.Send(src, dst, 2, "payload")
	k.Run()
	// 5 hops x 2 latency units per hop (size 2, b=1).
	if at != 10 {
		t.Errorf("delivered at %d, want 10", at)
	}
	if got.From != src || got.Size != 2 || got.Payload.(string) != "payload" {
		t.Errorf("message = %+v", got)
	}
}

// TestHandleAll: the one receiver sees every node's deliveries with the
// receiver's grid index, and installing it replaces the previous one.
func TestHandleAll(t *testing.T) {
	vm, k, _ := newVM(t, 4)
	g := vm.Grid()
	a, b := geom.Coord{Col: 1, Row: 2}, geom.Coord{Col: 3, Row: 0}
	vm.SetReceiver(func(int, Message) { t.Error("replaced receiver fired") })
	got := map[int]int{}
	vm.SetReceiver(func(to int, m Message) { got[to] += m.Payload.(int) })
	vm.Send(geom.Coord{}, a, 1, 1)
	vm.Send(geom.Coord{}, b, 1, 10)
	k.Run()
	if len(got) != 2 || got[g.Index(a)] != 1 || got[g.Index(b)] != 10 {
		t.Errorf("receiver saw %v, want 1 at node %d and 10 at node %d", got, g.Index(a), g.Index(b))
	}
}

func TestSendChargesEveryHop(t *testing.T) {
	vm, k, l := newVM(t, 4)
	src := geom.Coord{Col: 0, Row: 0}
	dst := geom.Coord{Col: 2, Row: 0}
	vm.Send(src, dst, 3, nil)
	k.Run()
	g := vm.Grid()
	// Route 0 -> (1,0) -> (2,0): src pays tx(3); middle pays rx+tx; dst rx.
	if e := l.Energy(g.Index(src)); e != 3 {
		t.Errorf("src energy = %d, want 3", e)
	}
	if e := l.Energy(g.Index(geom.Coord{Col: 1, Row: 0})); e != 6 {
		t.Errorf("relay energy = %d, want 6", e)
	}
	if e := l.Energy(g.Index(dst)); e != 3 {
		t.Errorf("dst energy = %d, want 3", e)
	}
	if total := l.Metrics().Total; total != 12 { // 2 hops x 2x3 units
		t.Errorf("total = %d, want 12", total)
	}
}

func TestSendToSelfFreeAndImmediate(t *testing.T) {
	vm, k, l := newVM(t, 4)
	c := geom.Coord{Col: 1, Row: 1}
	delivered := false
	receiveAt(vm, c, func(m Message) {
		delivered = true
		if k.Now() != 0 {
			t.Errorf("self-delivery at t=%d, want 0", k.Now())
		}
	})
	vm.Send(c, c, 100, nil)
	k.Run()
	if !delivered {
		t.Error("self message not delivered")
	}
	if l.Metrics().Total != 0 {
		t.Error("self message should be free")
	}
}

func TestSendToLeader(t *testing.T) {
	vm, k, _ := newVM(t, 4)
	from := geom.Coord{Col: 3, Row: 3}
	leader := geom.Coord{Col: 2, Row: 2}
	heard := false
	receiveAt(vm, leader, func(m Message) {
		heard = true
		if m.From != from {
			t.Errorf("From = %v", m.From)
		}
	})
	vm.SendToLeader(from, 1, 1, nil)
	k.Run()
	if !heard {
		t.Error("level-1 leader did not hear the group send")
	}
}

func TestPredictMatchesExecution(t *testing.T) {
	vm, k, l := newVM(t, 8)
	from := geom.Coord{Col: 7, Row: 5}
	to := geom.Coord{Col: 1, Row: 2}
	predE, predL := vm.PredictSendCost(from, to, 4)
	var at sim.Time
	receiveAt(vm, to, func(Message) { at = k.Now() })
	vm.Send(from, to, 4, nil)
	k.Run()
	if cost.Energy(l.Metrics().Total) != predE {
		t.Errorf("measured energy %d != predicted %d", l.Metrics().Total, predE)
	}
	if at != predL {
		t.Errorf("measured latency %d != predicted %d", at, predL)
	}
	// Group-primitive prediction agrees with point-to-point prediction.
	gE, gL := vm.PredictLeaderCost(geom.Coord{Col: 7, Row: 7}, 3, 2)
	pE, pL := vm.PredictSendCost(geom.Coord{Col: 7, Row: 7}, geom.Coord{Col: 0, Row: 0}, 2)
	if gE != pE || gL != pL {
		t.Error("leader prediction disagrees with send prediction")
	}
}

func TestComputeAndSense(t *testing.T) {
	vm, _, l := newVM(t, 4)
	c := geom.Coord{Col: 2, Row: 1}
	if lat := vm.Compute(c, 5); lat != 5 {
		t.Errorf("compute latency = %d, want 5", lat)
	}
	if lat := vm.Sense(c, 1); lat != 1 {
		t.Errorf("sense latency = %d, want 1", lat)
	}
	if e := l.Energy(vm.Grid().Index(c)); e != 6 {
		t.Errorf("energy = %d, want 6", e)
	}
}

func TestMachineStats(t *testing.T) {
	vm, k, _ := newVM(t, 4)
	vm.Send(geom.Coord{Col: 0, Row: 0}, geom.Coord{Col: 3, Row: 0}, 1, nil)
	vm.Send(geom.Coord{Col: 1, Row: 1}, geom.Coord{Col: 1, Row: 1}, 1, nil)
	k.Run()
	msgs, hops := vm.Stats()
	if msgs != 2 || hops != 3 {
		t.Errorf("stats = %d msgs %d hops, want 2/3", msgs, hops)
	}
}

func TestMachineTracing(t *testing.T) {
	vm, k, _ := newVM(t, 4)
	tr := trace.New()
	vm.SetTracer(tr)
	vm.Send(geom.Coord{Col: 0, Row: 0}, geom.Coord{Col: 2, Row: 1}, 2, nil)
	k.Run()
	if tr.Count(trace.Send) != 1 || tr.Count(trace.Deliver) != 1 {
		t.Errorf("trace counts: send %d deliver %d", tr.Count(trace.Send), tr.Count(trace.Deliver))
	}
	evts := tr.Events()
	if len(evts) != 2 {
		t.Fatalf("got %d events", len(evts))
	}
	if evts[0].At != 0 || evts[1].At != 6 { // 3 hops x 2 units
		t.Errorf("event times %d, %d", evts[0].At, evts[1].At)
	}
	// Tracing off by default: a fresh machine emits nothing and doesn't
	// crash.
	vm2, k2, _ := newVM(t, 4)
	vm2.Send(geom.Coord{}, geom.Coord{Col: 1, Row: 0}, 1, nil)
	k2.Run()
}

func TestMachineValidation(t *testing.T) {
	g := geom.NewSquareGrid(4, 4)
	h := MustHierarchy(g)
	defer func() {
		if recover() == nil {
			t.Error("ledger size mismatch should panic")
		}
	}()
	NewMachine(h, sim.New(), cost.NewLedger(cost.NewUniform(), 3))
}

func TestSendValidation(t *testing.T) {
	vm, _, _ := newVM(t, 4)
	for name, f := range map[string]func(){
		"oob dst":  func() { vm.Send(geom.Coord{}, geom.Coord{Col: 4, Row: 0}, 1, nil) },
		"oob src":  func() { vm.Send(geom.Coord{Col: -1, Row: 0}, geom.Coord{}, 1, nil) },
		"neg size": func() { vm.Send(geom.Coord{}, geom.Coord{Col: 1, Row: 0}, -1, nil) },
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
