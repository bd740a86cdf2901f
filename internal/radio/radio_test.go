package radio

import (
	"math"
	"math/rand"
	"testing"

	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/fault"
	"wsnva/internal/geom"
	"wsnva/internal/sim"
)

// chain builds a 4-node chain 0-1-2-3 with unit spacing and range 1.
func chain(t *testing.T) *deploy.Network {
	t.Helper()
	pts := []geom.Point{{X: 0.5, Y: 0.5}, {X: 1.5, Y: 0.5}, {X: 2.5, Y: 0.5}, {X: 3.5, Y: 0.5}}
	return deploy.FromPoints(pts, geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 1.0)
}

func newMedium(t *testing.T, nw *deploy.Network, cfg Config) (*Medium, *sim.Kernel, *cost.Ledger) {
	t.Helper()
	k := sim.New()
	l := cost.NewLedger(cost.NewUniform(), nw.N())
	m := NewMedium(nw, k, l, rand.New(rand.NewSource(1)), cfg)
	return m, k, l
}

func TestBroadcastReachesOnlyNeighbors(t *testing.T) {
	nw := chain(t)
	m, k, _ := newMedium(t, nw, Config{})
	got := map[int][]int{}
	m.SetReceiver(func(id int, p Packet) { got[id] = append(got[id], p.From) })
	m.Broadcast(1, 1, "hello")
	k.Run()
	if len(got[0]) != 1 || got[0][0] != 1 {
		t.Errorf("node 0 heard %v, want [1]", got[0])
	}
	if len(got[2]) != 1 || got[2][0] != 1 {
		t.Errorf("node 2 heard %v, want [1]", got[2])
	}
	if len(got[3]) != 0 {
		t.Errorf("node 3 (2 hops away) heard %v", got[3])
	}
	if len(got[1]) != 0 {
		t.Errorf("sender heard its own broadcast: %v", got[1])
	}
}

func TestBroadcastEnergyAccounting(t *testing.T) {
	nw := chain(t)
	m, k, l := newMedium(t, nw, Config{})
	m.Broadcast(1, 5, nil) // node 1 has neighbors 0 and 2
	k.Run()
	if l.Energy(1) != 5 {
		t.Errorf("sender energy = %d, want 5 (one tx of 5 units)", l.Energy(1))
	}
	if l.Energy(0) != 5 || l.Energy(2) != 5 {
		t.Errorf("receiver energies = %d,%d, want 5,5", l.Energy(0), l.Energy(2))
	}
	if l.Energy(3) != 0 {
		t.Errorf("out-of-range node charged %d", l.Energy(3))
	}
}

func TestBroadcastDelayEqualsTxLatency(t *testing.T) {
	nw := chain(t)
	m, k, _ := newMedium(t, nw, Config{})
	var at sim.Time = -1
	m.SetReceiver(func(to int, _ Packet) {
		if to == 0 {
			at = k.Now()
		}
	})
	m.Broadcast(1, 7, nil)
	k.Run()
	if at != 7 { // uniform model: b=1, so 7 units take 7 latency
		t.Errorf("delivery at t=%d, want 7", at)
	}
}

func TestUnicast(t *testing.T) {
	nw := chain(t)
	m, k, l := newMedium(t, nw, Config{})
	heard := 0
	m.SetReceiver(func(to int, p Packet) {
		if to != 2 {
			t.Errorf("unicast leaked to node %d", to)
			return
		}
		heard++
		if p.From != 1 || p.Size != 3 || p.Payload.(string) != "x" {
			t.Errorf("bad packet %+v", p)
		}
	})
	if !m.Unicast(1, 2, 3, "x") {
		t.Error("lossless unicast should report queued")
	}
	k.Run()
	if heard != 1 {
		t.Errorf("heard %d packets, want 1", heard)
	}
	if l.Energy(1) != 3 || l.Energy(2) != 3 {
		t.Errorf("energies %d,%d, want 3,3", l.Energy(1), l.Energy(2))
	}
}

func TestUnicastNonNeighborPanics(t *testing.T) {
	nw := chain(t)
	m, _, _ := newMedium(t, nw, Config{})
	defer func() {
		if recover() == nil {
			t.Error("unicast between non-neighbors should panic")
		}
	}()
	m.Unicast(0, 3, 1, nil)
}

func TestLossDropsSomeDeliveries(t *testing.T) {
	nw := chain(t)
	m, k, _ := newMedium(t, nw, Config{Loss: 0.5})
	received := 0
	m.SetReceiver(func(int, Packet) { received++ })
	const rounds = 1000
	for i := 0; i < rounds; i++ {
		m.Broadcast(1, 1, nil) // 2 potential deliveries per broadcast
	}
	k.Run()
	sent, delivered, dropped := m.Stats()
	if sent != rounds {
		t.Errorf("sent = %d, want %d", sent, rounds)
	}
	if delivered+dropped != 2*rounds {
		t.Errorf("delivered %d + dropped %d != %d", delivered, dropped, 2*rounds)
	}
	if received != int(delivered) {
		t.Errorf("receiver saw %d, medium delivered %d", received, delivered)
	}
	// With p=0.5 over 2000 Bernoulli trials, expect ~1000 ± a wide margin.
	if delivered < 800 || delivered > 1200 {
		t.Errorf("delivered = %d, implausible for p=0.5 over 2000 trials", delivered)
	}
}

func TestZeroLossDeliversEverything(t *testing.T) {
	nw := chain(t)
	m, k, _ := newMedium(t, nw, Config{})
	for i := 0; i < 100; i++ {
		m.Broadcast(0, 1, nil) // node 0 has exactly 1 neighbor
	}
	k.Run()
	_, delivered, dropped := m.Stats()
	if dropped != 0 || delivered != 100 {
		t.Errorf("delivered %d dropped %d, want 100/0", delivered, dropped)
	}
}

func TestDeafNodeStillChargedRx(t *testing.T) {
	nw := chain(t)
	m, k, l := newMedium(t, nw, Config{})
	m.Broadcast(1, 4, nil) // no receiver is set
	k.Run()
	if l.Energy(0) != 4 {
		t.Errorf("deaf node energy = %d, want 4", l.Energy(0))
	}
}

func TestConfigValidation(t *testing.T) {
	nw := chain(t)
	k := sim.New()
	l := cost.NewLedger(cost.NewUniform(), nw.N())
	rng := rand.New(rand.NewSource(1))
	for name, f := range map[string]func(){
		"loss=1":   func() { NewMedium(nw, k, l, rng, Config{Loss: 1}) },
		"loss<0":   func() { NewMedium(nw, k, l, rng, Config{Loss: -0.1}) },
		"loss NaN": func() { NewMedium(nw, k, l, rng, Config{Loss: math.NaN()}) },
		"loss and channel": func() {
			NewMedium(nw, k, l, rng, Config{Loss: 0.1, Channel: fault.NewBernoulli(0.1, rng)})
		},
		"ledger mismatch": func() { NewMedium(nw, k, cost.NewLedger(cost.NewUniform(), 2), rng, Config{}) },
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

func TestNegativeSizePanics(t *testing.T) {
	nw := chain(t)
	m, _, _ := newMedium(t, nw, Config{})
	defer func() {
		if recover() == nil {
			t.Error("negative size should panic")
		}
	}()
	m.Broadcast(0, -1, nil)
}

func TestAccessors(t *testing.T) {
	nw := chain(t)
	m, k, _ := newMedium(t, nw, Config{})
	if m.Network() != nw {
		t.Error("Network accessor")
	}
	if m.Kernel() != k {
		t.Error("Kernel accessor")
	}
}

// TestUnsortedAdjacencyRejected pins the assumption the binary-search
// neighbor check rests on: NewMedium must refuse a network whose adjacency
// lists are not strictly ascending, because a silent acceptance would turn
// Unicast's membership test into coin flips.
func TestUnsortedAdjacencyRejected(t *testing.T) {
	pts := []geom.Point{{X: 0.5, Y: 0.5}, {X: 1.5, Y: 0.5}, {X: 2.5, Y: 0.5}}
	adj := [][]int{{1}, {2, 0}, {1}} // node 1's list is out of order
	nw := deploy.FromAdjacency(pts, geom.Rect{MaxX: 10, MaxY: 10}, 1.0, adj)
	defer func() {
		if recover() == nil {
			t.Fatal("NewMedium accepted an unsorted adjacency list")
		}
	}()
	NewMedium(nw, sim.New(), cost.NewLedger(cost.NewUniform(), nw.N()),
		rand.New(rand.NewSource(1)), Config{})
}

// TestIsNeighborMatchesLinearScan cross-checks the binary search against a
// straight scan over every ordered pair of a real (spatial-hash built)
// deployment.
func TestIsNeighborMatchesLinearScan(t *testing.T) {
	nw := deploy.New(40, geom.Rect{MaxX: 8, MaxY: 8}, 1.5,
		deploy.UniformRandom{}, rand.New(rand.NewSource(7)))
	m, _, _ := newMedium(t, nw, Config{})
	for from := 0; from < nw.N(); from++ {
		want := map[int]bool{}
		for _, n := range nw.Neighbors(from) {
			want[int(n)] = true
		}
		for to := 0; to < nw.N(); to++ {
			if got := m.isNeighbor(from, to); got != want[to] {
				t.Fatalf("isNeighbor(%d,%d) = %v, linear scan says %v", from, to, got, want[to])
			}
		}
	}
}

// TestBroadcastBatchDeliveryOrder pins the fan-out contract: the
// survivors of a lossy broadcast all hear it at TxLatency(size), in
// ascending neighbor-ID order.
func TestBroadcastBatchDeliveryOrder(t *testing.T) {
	// A star: node 0 in the middle, 8 neighbors in range.
	pts := []geom.Point{{X: 5, Y: 5}}
	for i := 0; i < 8; i++ {
		pts = append(pts, geom.Point{X: 4.5 + float64(i%3)*0.5, Y: 4.5 + float64(i/3)*0.5})
	}
	nw := deploy.FromPoints(pts, geom.Rect{MaxX: 10, MaxY: 10}, 2.0)
	for trial := int64(0); trial < 20; trial++ {
		k := sim.New()
		l := cost.NewLedger(cost.NewUniform(), nw.N())
		m := NewMedium(nw, k, l, rand.New(rand.NewSource(trial)), Config{Loss: 0.3})
		var got []int
		m.SetReceiver(func(id int, _ Packet) {
			if k.Now() != 4 {
				t.Fatalf("trial %d: node %d heard the broadcast at %d, want 4", trial, id, k.Now())
			}
			got = append(got, id)
		})
		queued := m.Broadcast(0, 4, nil)
		k.Run()
		if len(got) != queued {
			t.Fatalf("trial %d: %d deliveries, %d queued", trial, len(got), queued)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("trial %d: deliveries out of ID order: %v", trial, got)
			}
		}
	}
}

// TestDeliveryPoolReuse drives enough traffic through a lossless medium to
// recycle delivery records between broadcasts, whose fan-out reads the
// sender's CSR row in place, and unicasts, which build their own one-entry
// receiver list, sent in the same instants with mixed latencies. Every
// record must be fully reset between flights: no stale payload leaks, each
// unicast is heard by its addressee alone, conservation holds, and the
// network's rows are untouched — a record that appended into an aliased
// row would rewrite them.
func TestDeliveryPoolReuse(t *testing.T) {
	nw := deploy.New(40, geom.Rect{MaxX: 8, MaxY: 8}, 1.5,
		deploy.UniformRandom{}, rand.New(rand.NewSource(7)))
	offsets, elems := nw.CSRView()
	wantOff := append([]int32(nil), offsets...)
	wantElems := append([]int32(nil), elems...)
	m, k, _ := newMedium(t, nw, Config{})

	type note struct{ from, to, seq int } // to < 0: a broadcast
	heard := 0
	m.SetReceiver(func(to int, p Packet) {
		heard++
		n, ok := p.Payload.(note)
		if !ok || n.from != p.From {
			t.Fatalf("node %d got payload %v from %d: stale payload leaked through the pool", to, p.Payload, p.From)
		}
		if n.to >= 0 && n.to != to {
			t.Fatalf("unicast %d->%d (seq %d) was heard by node %d", n.from, n.to, n.seq, to)
		}
	})
	want, seq := 0, 0
	for round := 0; round < 50; round++ {
		for from := 0; from < nw.N(); from++ {
			nbrs := wantElems[wantOff[from]:wantOff[from+1]]
			size := int64(1 + (from+round)%3)
			seq++
			if (from+round)%2 == 0 || len(nbrs) == 0 {
				want += m.Broadcast(from, size, note{from: from, to: -1, seq: seq})
				continue
			}
			to := int(nbrs[(round+from)%len(nbrs)])
			if m.Unicast(from, to, size, note{from: from, to: to, seq: seq}) {
				want++
			}
		}
		k.Run()
	}
	_, delivered, dropped := m.Stats()
	if dropped != 0 {
		t.Fatalf("lossless medium dropped %d", dropped)
	}
	if int64(heard) != delivered || heard != want {
		t.Fatalf("receiver heard %d, medium counted %d, %d were queued", heard, delivered, want)
	}
	offsets, elems = nw.CSRView()
	for i := range wantElems {
		if elems[i] != wantElems[i] {
			t.Fatalf("CSR element %d changed from %d to %d during the run", i, wantElems[i], elems[i])
		}
	}
	for i := range wantOff {
		if offsets[i] != wantOff[i] {
			t.Fatalf("CSR offset %d changed from %d to %d during the run", i, wantOff[i], offsets[i])
		}
	}
}

func TestSuspendSilencesBothDirections(t *testing.T) {
	nw := chain(t)
	m, k, l := newMedium(t, nw, Config{})
	heard := map[int]int{}
	m.SetReceiver(func(id int, _ Packet) { heard[id]++ })
	m.Suspend(1)
	if !m.Alive(1) || !m.Suspended(1) {
		t.Fatalf("suspended node: Alive=%v Suspended=%v, want true/true", m.Alive(1), m.Suspended(1))
	}
	// A sleeping node does not transmit (no Tx charge, no fan-out)...
	if got := m.Broadcast(1, 1, "x"); got != 0 {
		t.Errorf("sleeping broadcast queued %d deliveries, want 0", got)
	}
	if l.Energy(1) != 0 {
		t.Errorf("sleeping sender charged %d", l.Energy(1))
	}
	// ...and does not receive (delivery dropped, no Rx charge).
	m.Broadcast(0, 1, "y")
	k.Run()
	if heard[1] != 0 {
		t.Errorf("sleeping node heard %d packets", heard[1])
	}
	if l.Energy(1) != 0 {
		t.Errorf("sleeping receiver charged %d", l.Energy(1))
	}
	_, _, dropped := m.Stats()
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
}

func TestResumeRestoresTraffic(t *testing.T) {
	nw := chain(t)
	m, k, _ := newMedium(t, nw, Config{})
	heard := 0
	m.SetReceiver(func(to int, _ Packet) {
		if to == 1 {
			heard++
		}
	})
	m.Suspend(1)
	m.Resume(1)
	if m.Suspended(1) {
		t.Fatal("resumed node still suspended")
	}
	m.Broadcast(0, 1, "y")
	k.Run()
	if heard != 1 {
		t.Errorf("resumed node heard %d packets, want 1", heard)
	}
}

// TestResumedNodeByteIdenticalToNeverSlept is the satellite regression:
// with no packets in flight across the sleep, a suspend/resume cycle
// leaves the medium byte-identical to one where the node never slept —
// same RNG stream (the loss draws consume it), same ledger, same
// counters, same delivery schedule.
func TestResumedNodeByteIdenticalToNeverSlept(t *testing.T) {
	run := func(sleep bool) (sent, delivered, dropped int64, energy [4]int64, heard [4]int) {
		nw := chain(t)
		m, k, l := newMedium(t, nw, Config{Loss: 0.3})
		m.SetReceiver(func(id int, _ Packet) { heard[id]++ })
		m.Broadcast(0, 2, "a")
		k.Run() // quiesce: nothing in flight
		if sleep {
			m.Suspend(2)
			m.Resume(2)
		}
		m.Broadcast(2, 2, "b")
		m.Unicast(1, 2, 1, "c")
		k.Run()
		s, d, dr := m.Stats()
		for id := 0; id < nw.N(); id++ {
			energy[id] = int64(l.Energy(id))
		}
		return s, d, dr, energy, heard
	}
	s1, d1, dr1, e1, h1 := run(false)
	s2, d2, dr2, e2, h2 := run(true)
	if s1 != s2 || d1 != d2 || dr1 != dr2 || e1 != e2 || h1 != h2 {
		t.Errorf("resumed run diverged: sent %d/%d delivered %d/%d dropped %d/%d energy %v/%v heard %v/%v",
			s1, s2, d1, d2, dr1, dr2, e1, e2, h1, h2)
	}
}

func TestSuspendResumeOnDeadIsNoOp(t *testing.T) {
	nw := chain(t)
	m, _, _ := newMedium(t, nw, Config{})
	m.Kill(1)
	m.Suspend(1)
	if m.Suspended(1) {
		t.Error("dead node reports suspended")
	}
	m.Resume(1) // must not revive
	if m.Alive(1) {
		t.Error("resume revived a dead node")
	}
	// Kill of a sleeping node is final.
	m.Suspend(2)
	m.Kill(2)
	if m.Alive(2) || m.Suspended(2) {
		t.Errorf("killed sleeping node: Alive=%v Suspended=%v, want false/false", m.Alive(2), m.Suspended(2))
	}
}
