package varch

import (
	"math/rand"
	"testing"

	"wsnva/internal/fault"
	"wsnva/internal/geom"
	"wsnva/internal/sim"
)

func TestDeadSenderSuppressed(t *testing.T) {
	vm, k, l := newVM(t, 4)
	src := geom.Coord{Col: 0, Row: 0}
	dst := geom.Coord{Col: 3, Row: 0}
	delivered := false
	receiveAt(vm, dst, func(Message) { delivered = true })
	vm.KillCoord(src)
	vm.Send(src, dst, 1, nil)
	k.Run()
	if delivered {
		t.Error("dead sender's message was delivered")
	}
	if total := l.Metrics().Total; total != 0 {
		t.Errorf("dead sender charged %d energy, want 0", total)
	}
	if s := vm.FaultStats(); s.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1", s.Suppressed)
	}
	if msgs, _ := vm.Stats(); msgs != 0 {
		t.Errorf("msgs = %d, want 0: a suppressed send was never sent", msgs)
	}
}

func TestDeadReceiverDropsDelivery(t *testing.T) {
	vm, k, _ := newVM(t, 4)
	src := geom.Coord{Col: 0, Row: 0}
	dst := geom.Coord{Col: 3, Row: 0}
	delivered := false
	receiveAt(vm, dst, func(Message) { delivered = true })
	vm.KillCoord(dst)
	vm.Send(src, dst, 1, nil)
	k.Run()
	if delivered {
		t.Error("dead receiver's handler fired")
	}
	if s := vm.FaultStats(); s.DeadDrops != 1 || s.Delivered != 0 {
		t.Errorf("stats = %+v, want 1 dead drop, 0 delivered", s)
	}
}

func TestCrashMidFlightCancelsDelivery(t *testing.T) {
	// The destination dies while the message is in the air; Kill's
	// CancelOwner must evaporate the pending delivery, so the handler never
	// fires and DeadDrops stays 0 (the event never ran at all).
	vm, k, _ := newVM(t, 4)
	g := vm.Grid()
	src := geom.Coord{Col: 0, Row: 0}
	dst := geom.Coord{Col: 3, Row: 0} // 3 hops, unit size: arrives at t=3
	delivered := false
	receiveAt(vm, dst, func(Message) { delivered = true })
	fault.At(fault.Crash{Node: g.Index(dst), At: 1}).Arm(k, g.N(), vm.Kill)
	vm.Send(src, dst, 1, nil)
	k.Run()
	if delivered {
		t.Error("delivery to a node that crashed mid-flight fired")
	}
	if s := vm.FaultStats(); s.DeadDrops != 0 {
		t.Errorf("DeadDrops = %d, want 0: the event should be cancelled, not dropped", s.DeadDrops)
	}
}

func TestKillDeadNodeCancelsNothing(t *testing.T) {
	// A second Kill of a dead node is a no-op: the delivery a send issued
	// after the first kill scheduled at the dead node stays queued, so it
	// still ends as exactly one dead drop instead of evaporating.
	vm, k, _ := newVM(t, 4)
	src := geom.Coord{Col: 0, Row: 0}
	dst := geom.Coord{Col: 3, Row: 0}
	vm.KillCoord(dst)
	vm.Send(src, dst, 1, nil)
	vm.KillCoord(dst)
	k.Run()
	if s := vm.FaultStats(); s.DeadDrops != 1 || s.Delivered != 0 {
		t.Errorf("stats = %+v, want 1 dead drop, 0 delivered", s)
	}
}

func TestReliableDeliveryExactRetryCount(t *testing.T) {
	// Deterministic ARQ pinning: with seed 10, the first two loss draws for
	// the flight fail and the third succeeds, so the machine performs
	// exactly 2 retransmissions, 1 ack, 1 delivery. The draw sequence below
	// is asserted first so a Go PRNG change fails loudly here instead of
	// mysteriously in the counters.
	const seed, loss = 10, 0.6
	rng := rand.New(rand.NewSource(seed))
	want := []bool{true, true, false} // lost, lost, sent
	for i, w := range want {
		if got := rng.Float64() < loss; got != w {
			t.Fatalf("draw %d = %v, want %v (PRNG sequence changed)", i, got, w)
		}
	}

	vm, k, _ := newVM(t, 4)
	vm.SetChannel(fault.NewBernoulli(loss, rand.New(rand.NewSource(seed))))
	vm.SetReliability(fault.Reliability{MaxRetries: 3, Timeout: 8, MaxBackoff: 64, AckSize: 1})
	src := geom.Coord{Col: 0, Row: 0}
	dst := geom.Coord{Col: 2, Row: 0}
	delivered := 0
	receiveAt(vm, dst, func(Message) { delivered++ })
	vm.Send(src, dst, 1, nil)
	k.Run()
	s := vm.FaultStats()
	if delivered != 1 {
		t.Fatalf("delivered %d times, want exactly 1", delivered)
	}
	if s.Retransmissions != 2 {
		t.Errorf("Retransmissions = %d, want exactly 2", s.Retransmissions)
	}
	if s.Lost != 2 {
		t.Errorf("Lost = %d, want exactly 2", s.Lost)
	}
	if s.Acks != 1 || s.Delivered != 1 {
		t.Errorf("Acks = %d, Delivered = %d, want 1, 1", s.Acks, s.Delivered)
	}
}

func TestReliableDeliveryEnergyAccounting(t *testing.T) {
	// One clean reliable send over 2 hops, unit payload, unit ack: the data
	// costs 2 hops x 2 units, the ack the same back, total 8.
	vm, k, l := newVM(t, 4)
	vm.SetChannel(fault.NewBernoulli(0.5, rand.New(rand.NewSource(3))))
	vm.SetReliability(fault.Reliability{MaxRetries: 5, Timeout: 8, AckSize: 1})
	src := geom.Coord{Col: 0, Row: 0}
	dst := geom.Coord{Col: 2, Row: 0}
	vm.Send(src, dst, 1, nil)
	k.Run()
	s := vm.FaultStats()
	if s.Delivered != 1 {
		t.Fatalf("stats = %+v, want a delivery", s)
	}
	attempts := 1 + s.Retransmissions
	wantEnergy := attempts*4 + 4 // per attempt: 2 hops x (tx+rx); ack once
	if total := int64(l.Metrics().Total); total != wantEnergy {
		t.Errorf("total energy = %d, want %d (%d attempts + 1 ack)", total, wantEnergy, attempts)
	}
}

func TestReliabilityGivesUpAfterMaxRetries(t *testing.T) {
	// An always-dead receiver never acks; the sender must stop after
	// MaxRetries retransmissions, not spin forever.
	vm, k, _ := newVM(t, 4)
	vm.SetChannel(fault.NewBernoulli(0.5, rand.New(rand.NewSource(7))))
	vm.SetReliability(fault.Reliability{MaxRetries: 3, Timeout: 8, MaxBackoff: 64})
	src := geom.Coord{Col: 0, Row: 0}
	dst := geom.Coord{Col: 3, Row: 3}
	vm.KillCoord(dst)
	vm.Send(src, dst, 1, nil)
	k.Run()
	s := vm.FaultStats()
	if s.Retransmissions != 3 {
		t.Errorf("Retransmissions = %d, want exactly MaxRetries = 3", s.Retransmissions)
	}
	if s.Delivered != 0 {
		t.Errorf("Delivered = %d, want 0", s.Delivered)
	}
}

func TestActingLeaderPromotion(t *testing.T) {
	vm, _, _ := newVM(t, 4)
	member := geom.Coord{Col: 3, Row: 3}
	leader := vm.Hier.LeaderAt(member, 2) // (0,0)
	if got := vm.ActingLeaderAt(member, 2); got != leader {
		t.Fatalf("acting leader = %v with everyone alive, want %v", got, leader)
	}
	vm.KillCoord(leader)
	// Row-major promotion order: (1,0) is the next block member.
	if got := vm.ActingLeaderAt(member, 2); got != (geom.Coord{Col: 1, Row: 0}) {
		t.Errorf("acting leader = %v, want (1,0)", got)
	}
	// Kill the whole first row; promotion continues in row-major order.
	for col := 1; col < 4; col++ {
		vm.KillCoord(geom.Coord{Col: col, Row: 0})
	}
	if got := vm.ActingLeaderAt(member, 2); got != (geom.Coord{Col: 0, Row: 1}) {
		t.Errorf("acting leader = %v, want (0,1)", got)
	}
}

func TestSendToLeaderFailsOver(t *testing.T) {
	vm, k, _ := newVM(t, 4)
	member := geom.Coord{Col: 2, Row: 2}
	leader := vm.Hier.LeaderAt(member, 2)
	acting := geom.Coord{Col: 1, Row: 0}
	vm.KillCoord(leader)
	got := geom.Coord{Col: -1, Row: -1}
	receiveAt(vm, acting, func(m Message) { got = m.From })
	vm.SendToLeader(member, 2, 1, nil)
	k.Run()
	if got != member {
		t.Errorf("acting leader did not receive the failed-over message (got from %v)", got)
	}
}

func TestGroupSumSkipsDeadMembers(t *testing.T) {
	for _, strat := range []Strategy{Direct, Convergecast} {
		vm, _, _ := newVM(t, 4)
		leader := geom.Coord{Col: 0, Row: 0}
		dead := geom.Coord{Col: 3, Row: 3}
		vm.KillCoord(dead)
		sum, _ := vm.GroupSum(leader, 2, func(geom.Coord) int64 { return 1 }, strat)
		if sum != 15 {
			t.Errorf("%v: sum = %d, want 15 (16 members, 1 dead)", strat, sum)
		}
	}
}

func TestGroupBroadcastSkipsDeadSubtree(t *testing.T) {
	vm, k, _ := newVM(t, 4)
	leader := geom.Coord{Col: 0, Row: 0}
	// Kill the level-1 sub-leader of the SE quadrant: its whole 2x2 block
	// loses the payload (no failover inside modeled collectives).
	deadSub := geom.Coord{Col: 2, Row: 2}
	vm.KillCoord(deadSub)
	got := make(map[geom.Coord]bool)
	vm.SetReceiver(func(to int, _ Message) { got[vm.Grid().CoordOf(to)] = true })
	vm.GroupBroadcast(leader, 2, 1, "x")
	k.Run()
	if len(got) != 12 {
		t.Errorf("%d members received, want 12 (dead sub-leader starves its 2x2 block)", len(got))
	}
	for _, c := range []geom.Coord{{Col: 2, Row: 2}, {Col: 3, Row: 2}, {Col: 2, Row: 3}, {Col: 3, Row: 3}} {
		if got[c] {
			t.Errorf("node %v below the dead sub-leader received the payload", c)
		}
	}
}

func TestFaultFreeMachineMatchesBaseline(t *testing.T) {
	// The fault machinery armed-but-idle (a channel that never loses,
	// reliability off, no kills) must not perturb delivery times, energy,
	// or counters.
	run := func(arm bool) (sim.Time, int64, int64) {
		vm, k, l := newVM(t, 8)
		if arm {
			vm.SetChannel(fault.NewBernoulli(0, nil))
		}
		var last sim.Time
		vm.SetReceiver(func(int, Message) { last = k.Now() })
		vm.SendToLeader(geom.Coord{Col: 7, Row: 5}, 3, 2, nil)
		vm.GroupSum(geom.Coord{}, 3, func(geom.Coord) int64 { return 2 }, Convergecast)
		vm.GroupBroadcast(geom.Coord{}, 3, 1, nil)
		k.Run()
		msgs, hops := vm.Stats()
		_ = hops
		return last, msgs, int64(l.Metrics().Total)
	}
	t1, m1, e1 := run(false)
	t2, m2, e2 := run(true)
	if t1 != t2 || m1 != m2 || e1 != e2 {
		t.Errorf("armed-idle fault layer changed behavior: (%d,%d,%d) vs (%d,%d,%d)",
			t1, m1, e1, t2, m2, e2)
	}
}

// TestCollectivesDrawFromTheChannel: a collective's transfers and a group
// broadcast's copies draw their loss from whatever channel is set, a
// Gilbert–Elliott chain as much as a Bernoulli coin.
func TestCollectivesDrawFromTheChannel(t *testing.T) {
	for _, tc := range []struct {
		name    string
		channel fault.Channel
	}{
		{"bernoulli", fault.NewBernoulli(0.9, rand.New(rand.NewSource(1)))},
		{"burst", fault.GilbertElliott{LossGood: 0.9}.Process(1)},
	} {
		vm, k, _ := newVM(t, 8)
		vm.SetChannel(tc.channel)
		root := vm.Hier.Root()
		sum, _ := vm.GroupSum(root, 3, func(geom.Coord) int64 { return 1 }, Direct)
		if lost := vm.FaultStats().Lost; sum >= 64 || lost == 0 {
			t.Errorf("%s: GroupSum = %d with %d losses, want < 64 with losses", tc.name, sum, lost)
		}
		reached := 0
		vm.SetReceiver(func(int, Message) { reached++ })
		vm.GroupBroadcast(root, 3, 1, nil)
		k.Run()
		if reached >= 64 {
			t.Errorf("%s: GroupBroadcast reached %d of 64 members through a 90%%-lossy channel", tc.name, reached)
		}
	}
}
