package varch

import (
	"testing"

	"wsnva/internal/cost"
	"wsnva/internal/geom"
)

func TestGroupBroadcastReachesAllMembers(t *testing.T) {
	vm, k, _ := newVM(t, 8)
	h := vm.Hier
	leader := geom.Coord{Col: 4, Row: 4}
	heard := map[geom.Coord]int{}
	vm.SetReceiver(func(to int, msg Message) {
		m := h.Grid.CoordOf(to)
		heard[m]++
		if msg.From != leader || msg.Payload.(string) != "cfg" {
			t.Errorf("bad message at %v: %+v", m, msg)
		}
	})
	lat := vm.GroupBroadcast(leader, 2, 3, "cfg")
	k.Run()
	if len(heard) != 16 {
		t.Fatalf("heard at %d members, want 16", len(heard))
	}
	for m, n := range heard {
		if n != 1 {
			t.Errorf("member %v heard %d copies", m, n)
		}
	}
	if lat <= 0 {
		t.Error("nonpositive latency")
	}
}

func TestGroupBroadcastOutsideGroupSilent(t *testing.T) {
	vm, k, _ := newVM(t, 8)
	outside := geom.Coord{Col: 0, Row: 0}
	receiveAt(vm, outside, func(Message) { t.Error("node outside the group heard the broadcast") })
	vm.GroupBroadcast(geom.Coord{Col: 4, Row: 4}, 2, 1, nil)
	k.Run()
}

func TestGroupBroadcastCheaperThanNaive(t *testing.T) {
	// Hierarchical dissemination must beat the leader unicasting to every
	// member individually.
	hierEnergy := func() cost.Energy {
		vm, k, l := newVM(t, 16)
		vm.GroupBroadcast(vm.Hier.Root(), 4, 4, nil)
		k.Run()
		return l.Metrics().Total
	}()
	naiveEnergy := func() cost.Energy {
		vm, k, l := newVM(t, 16)
		for _, m := range vm.Hier.Followers(vm.Hier.Root(), 4) {
			if m != vm.Hier.Root() {
				vm.Send(vm.Hier.Root(), m, 4, nil)
			}
		}
		k.Run()
		return l.Metrics().Total
	}()
	if hierEnergy >= naiveEnergy {
		t.Errorf("hierarchical broadcast %d should beat naive %d", hierEnergy, naiveEnergy)
	}
}

func TestGroupBroadcastNonLeaderPanics(t *testing.T) {
	vm, _, _ := newVM(t, 4)
	defer func() {
		if recover() == nil {
			t.Error("non-leader broadcast should panic")
		}
	}()
	vm.GroupBroadcast(geom.Coord{Col: 1, Row: 0}, 1, 1, nil)
}

func TestBarrier(t *testing.T) {
	vm, k, l := newVM(t, 8)
	h := vm.Hier
	released := 0
	vm.SetReceiver(func(_ int, msg Message) {
		if rel, ok := msg.Payload.(barrierRelease); ok {
			if rel.level != 3 {
				t.Errorf("release level = %d", rel.level)
			}
			released++
		}
	})
	lat := vm.Barrier(h.Root(), 3)
	k.Run()
	if released != 64 {
		t.Errorf("released %d members, want 64", released)
	}
	if lat <= 0 || l.Metrics().Total <= 0 {
		t.Error("barrier must cost time and energy")
	}
	// A barrier is a round trip: it must cost at least twice the one-way
	// worst member distance.
	if int64(lat) < 2*int64(h.MaxFollowerDistance(3))/2 {
		t.Errorf("latency %d implausibly small", lat)
	}
}

func TestBarrierLevelZeroTrivial(t *testing.T) {
	vm, k, l := newVM(t, 4)
	lat := vm.Barrier(geom.Coord{Col: 2, Row: 2}, 0)
	k.Run()
	if lat != 0 {
		t.Errorf("level-0 barrier latency = %d, want 0", lat)
	}
	if l.Metrics().Total != 0 {
		t.Error("level-0 barrier should be free")
	}
}
