package shard

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"wsnva/internal/deploy"
	"wsnva/internal/geom"
	"wsnva/internal/sim"
)

// stillFab is a fabric frozen at one instant: the inbox reads only its
// clock and hands it each batch to land (onLand, when set, sees them), so
// every transmission is a test bug.
type stillFab struct {
	at     sim.Time
	onLand func(v int32, batch []int32, live bool)
}

func (f *stillFab) now() sim.Time                       { return f.at }
func (f *stillFab) broadcast(int, int64, int64)         { panic("stillFab: broadcast") }
func (f *stillFab) unicast(int, int, int64, int64, any) { panic("stillFab: unicast") }
func (f *stillFab) land(v int32, _ []Packet, batch []int32, live bool) {
	if f.onLand != nil {
		f.onLand(v, batch, live)
	}
}

// wakeRec is one wake as the app saw it, its batch's packets copied.
type wakeRec struct {
	node int
	pkts []Packet
}

// recApp records every wake; during, when set, runs inside each wake.
type recApp struct {
	wakes  []wakeRec
	during func(node int)
}

func (a *recApp) start(fabric, int) {}

func (a *recApp) wake(_ fabric, node int, recs []Packet, batch []int32) {
	pkts := make([]Packet, len(batch))
	for i, r := range batch {
		pkts[i] = recs[r]
	}
	a.wakes = append(a.wakes, wakeRec{node, pkts})
	if a.during != nil {
		a.during(node)
	}
}

// inboxState is a fresh State for n nodes; the inbox ignores positions.
func inboxState(n int) *State {
	terrain := geom.Rect{MaxX: 10, MaxY: 10}
	return NewState(deploy.New(n, terrain, 1, deploy.UniformRandom{}, rand.New(rand.NewSource(1))))
}

// TestInboxWakesInIDOrderWithSortedBatches adds packets to random nodes
// in random order and checks the drain: each listed node is woken once,
// in ascending ID order, with exactly its packets sorted by (From, Key).
// It runs on the identity layout and on a shuffled one, where the inbox
// maps each ID to its slot and must still wake by ID.
func TestInboxWakesInIDOrderWithSortedBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 40
	for _, id := range [][]int32{identity(n), shuffled(n, rng)} {
		slot := make([]int32, n)
		for v, node := range id {
			slot[node] = int32(v)
		}
		st := inboxState(n)
		ib := &inbox{st: st, slot: slot}
		for round := 0; round < 20; round++ {
			want := make(map[int][]Packet)
			firsts := 0
			for i := 0; i < 1+rng.Intn(200); i++ {
				to := rng.Intn(n)
				p := Packet{From: rng.Intn(n), Size: 1, Key: int64(rng.Intn(4)), Payload: i}
				want[to] = append(want[to], p)
				if ib.add(int32(to), p) {
					firsts++
				}
			}
			if firsts != 1 {
				t.Fatalf("round %d: %d adds reported the instant's first input, want 1", round, firsts)
			}
			a := &recApp{}
			ib.drain(&stillFab{}, a)
			if len(a.wakes) != len(want) {
				t.Fatalf("round %d: %d wakes for %d nodes with input", round, len(a.wakes), len(want))
			}
			for i, w := range a.wakes {
				if i > 0 && w.node <= a.wakes[i-1].node {
					t.Fatalf("round %d: node %d woke after node %d", round, w.node, a.wakes[i-1].node)
				}
				for j := 1; j < len(w.pkts); j++ {
					if less(&w.pkts[j], &w.pkts[j-1]) {
						t.Fatalf("round %d: node %d batch not sorted by (From, Key): %v", round, w.node, w.pkts)
					}
				}
				// (From, Key) may repeat here, so compare in add order.
				got := slices.Clone(w.pkts)
				slices.SortFunc(got, func(x, y Packet) int { return x.Payload.(int) - y.Payload.(int) })
				if !slices.Equal(got, want[w.node]) {
					t.Fatalf("round %d: node %d got %v, want %v", round, w.node, got, want[w.node])
				}
			}
		}
	}
}

// identityInbox is an inbox on st's nodes in the identity layout.
func identityInbox(st *State) *inbox {
	return &inbox{st: st, slot: identity(len(st.Alive))}
}

// shuffled is a random slot-to-ID map on n nodes.
func shuffled(n int, rng *rand.Rand) []int32 {
	id := identity(n)
	rng.Shuffle(n, func(i, j int) { id[i], id[j] = id[j], id[i] })
	return id
}

// TestInboxDeadNodeLosesInput: a node that is no longer live at the
// drain is not woken, and land is told so with its whole batch.
func TestInboxDeadNodeLosesInput(t *testing.T) {
	st := inboxState(3)
	st.Alive[1] = false
	ib := identityInbox(st)
	ib.add(1, Packet{From: 0, Size: 1})
	ib.add(2, Packet{From: 0, Size: 1})
	ib.add(1, Packet{From: 2, Size: 1})
	a := &recApp{}
	gated := map[int32]int{}
	ib.drain(&stillFab{at: 7, onLand: func(v int32, batch []int32, live bool) {
		if live != (v == 2) {
			t.Errorf("slot %d landed with live %v", v, live)
		}
		gated[v] += len(batch)
	}}, a)
	if len(a.wakes) != 1 || a.wakes[0].node != 2 {
		t.Fatalf("wakes = %+v, want node 2 only", a.wakes)
	}
	if gated[1] != 2 || gated[2] != 1 {
		t.Errorf("landed batches %v, want two packets at slot 1 and one at slot 2", gated)
	}
	if st.count[1] != 0 {
		t.Error("dead node's input survived the drain")
	}
}

// TestInboxSharedRecordReachesEachReceiverOnce stores each transmission
// once, for a random set of receivers, with the senders and their keys
// recorded in shuffled order: every receiver gets every record it was
// queued for exactly once, in its batch's (From, Key) order, and only the
// instant's first transmission asks for the drain.
func TestInboxSharedRecordReachesEachReceiverOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 40
	st := inboxState(n)
	ib := identityInbox(st)
	for round := 0; round < 20; round++ {
		var sends []Packet
		for from := 0; from < 1+rng.Intn(30); from++ {
			for _, key := range rng.Perm(4)[:1+rng.Intn(2)] {
				sends = append(sends, Packet{From: from, Size: 1, Key: int64(key), Payload: round})
			}
		}
		rng.Shuffle(len(sends), func(i, j int) { sends[i], sends[j] = sends[j], sends[i] })
		want := make(map[int][]Packet)
		for i, p := range sends {
			var ids []int32
			for _, to := range rng.Perm(n)[:1+rng.Intn(n/2)] {
				ids = append(ids, int32(to))
				want[to] = append(want[to], p)
			}
			if first := ib.deliver(p, ids); first != (i == 0) {
				t.Fatalf("round %d: transmission %d reported first input %v", round, i, first)
			}
		}
		a := &recApp{}
		ib.drain(&stillFab{}, a)
		if len(a.wakes) != len(want) {
			t.Fatalf("round %d: %d wakes for %d nodes with input", round, len(a.wakes), len(want))
		}
		for _, w := range a.wakes {
			// (From, Key) is unique here, so the order is fixed.
			slices.SortFunc(want[w.node], comparePackets)
			if !slices.Equal(w.pkts, want[w.node]) {
				t.Fatalf("round %d: node %d got %v, want %v", round, w.node, w.pkts, want[w.node])
			}
		}
	}
}

// TestInboxDrainedHoldsNoPayload: after a drain of out-of-order
// records, the record table, the receiver runs, the node list and the
// per-node State arrays are empty, no payload is still referenced from
// the retained capacity, and the drain's sort keys and batch scratch are
// no larger than the record table and the receiver runs they serve.
func TestInboxDrainedHoldsNoPayload(t *testing.T) {
	st := inboxState(8)
	ib := identityInbox(st)
	for i := int32(0); i < 50; i++ {
		ib.add(i%8, Packet{From: int(i), Size: 1, Payload: &wakeRec{}})
		ib.deliver(Packet{From: 50 + int(i), Size: 1, Payload: &wakeRec{}}, []int32{i % 8, (i + 3) % 8})
	}
	ib.add(1, Packet{From: 0, Key: 1, Size: 1, Payload: &wakeRec{}})
	ib.drain(&stillFab{}, &recApp{})
	if len(ib.recs) != 0 || len(ib.start) != 0 || len(ib.to) != 0 || len(ib.nodes) != 0 || ib.draining {
		t.Fatalf("drained inbox: recs %d, start %d, to %d, nodes %d, draining %v",
			len(ib.recs), len(ib.start), len(ib.to), len(ib.nodes), ib.draining)
	}
	for _, p := range ib.recs[:cap(ib.recs)] {
		if p.Payload != nil {
			t.Fatal("drained inbox still references a payload")
		}
	}
	if cap(ib.keys) == 0 || cap(ib.keys) > cap(ib.recs) || cap(ib.order) > cap(ib.to) {
		t.Fatalf("drain scratch: keys %d for %d records, order %d for %d receivers",
			cap(ib.keys), cap(ib.recs), cap(ib.order), cap(ib.to))
	}
	for v := 0; v < 8; v++ {
		if st.count[v] != 0 {
			t.Fatalf("node %d keeps wake state after the drain", v)
		}
	}
}

// countApp counts wakes without allocating.
type countApp struct{ wakes int }

func (a *countApp) start(fabric, int)                   {}
func (a *countApp) wake(fabric, int, []Packet, []int32) { a.wakes++ }

// less orders packets by (From, Key), every wake batch's order.
func less(a, b *Packet) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	return a.Key < b.Key
}

// comparePackets is less as a three-way comparison.
func comparePackets(x, y Packet) int {
	switch {
	case less(&x, &y):
		return -1
	case less(&y, &x):
		return 1
	}
	return 0
}

// TestInboxCycleAllocatesNothing: once the record table, the receiver
// runs, the drain's scratch and the node list have grown, add/drain
// cycles with shared records allocate nothing, whether the instant's
// records arrive in (From, Key) order or reversed.
func TestInboxCycleAllocatesNothing(t *testing.T) {
	const n = 64
	st := inboxState(n)
	ib := identityInbox(st)
	fab, a := &stillFab{}, &countApp{}
	cycle := func() {
		for _, reversed := range []bool{false, true} {
			for i := 0; i < 500; i++ {
				from := i / 50
				if reversed {
					from = 10 - from
				}
				ib.add(int32(i*37%n), Packet{From: from, Size: 1, Key: int64(i % 50)})
			}
			for i := 0; i < 100; i++ {
				var ids [6]int32
				for j := range ids {
					ids[j] = int32((i*13 + j*7) % n)
				}
				ib.deliver(Packet{From: 11 + i, Size: 1}, ids[:])
			}
			if sorted := slices.IsSortedFunc(ib.recs, comparePackets); sorted == reversed {
				t.Fatalf("reversed %v: records in order %v", reversed, sorted)
			}
			ib.drain(fab, a)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("warm add/drain cycle: %v allocs, want 0", allocs)
	}
}

// TestInboxInputDuringDrainPanics: a wake cannot reach its own instant,
// so a delivery from inside the drain is a bug, whether its node has no
// input yet (node 1) or is listed but not yet woken (node 2). The input
// comes from node 0's wake, the drain's first, and the panic must be the
// inbox's own.
func TestInboxInputDuringDrainPanics(t *testing.T) {
	for name, input := range map[string]func(*inbox){
		"add":                  func(ib *inbox) { ib.add(1, Packet{From: 0, Size: 1}) },
		"add to a listed node": func(ib *inbox) { ib.add(2, Packet{From: 0, Size: 1}) },
		"deliver to both":      func(ib *inbox) { ib.deliver(Packet{From: 0, Size: 1}, []int32{1, 2}) },
	} {
		st := inboxState(4)
		ib := identityInbox(st)
		ib.add(0, Packet{From: 3, Size: 1})
		ib.add(2, Packet{From: 1, Size: 1})
		a := &recApp{during: func(node int) {
			if node == 0 {
				input(ib)
			}
		}}
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "drain") {
					t.Errorf("%s during a drain: recovered %q, want the inbox's panic", name, msg)
				}
			}()
			ib.drain(&stillFab{}, a)
		}()
	}
}
