package shard

import (
	"math/bits"

	"wsnva/internal/sim"
)

// fabric is what an app running on either engine sees: a simulated
// clock, a loss-free broadcast primitive, and a single-shot wake timer.
// Both the sharded engine (shardRun) and the single-kernel oracle
// (singleFab) implement it, which is what makes the differential tests
// run one app against both.
//
// Delivery semantics are batched: the fabric coalesces every input that
// reaches a node at one instant — all packet deliveries plus an expired
// timer — into a single wake callback whose batch is sorted by
// (From, Key), and wakes the nodes with input at that instant in
// ascending ID order. The batch contents are therefore independent of
// the order deliveries were scheduled in, which is the property that
// makes sharded and single-kernel execution agree bit-for-bit
// (DESIGN.md, "Sharded parallel kernel").
type fabric interface {
	// now returns the current simulated time.
	now() sim.Time
	// broadcast transmits size data units carrying key to every one-hop
	// neighbor of from, charging Tx at the sender, and returns how many
	// neighbors it was queued for (losses excluded). size must be
	// positive: a zero-size packet would have zero latency and break the
	// lookahead bound.
	broadcast(from int, size, key int64) int
	// unicast transmits size data units carrying (key, payload) to a
	// single one-hop neighbor, charging Tx at the sender; it reports
	// whether the packet was queued (false: dead sender or loss draw).
	// key must be unique among all packets that can reach one node at
	// one instant — the labeling app uses the originating node's id.
	unicast(from, to int, size, key int64, payload any) bool
	// wakeAfter arms the node's single-shot timer d > 0 units from now;
	// at most one may be outstanding per node.
	wakeAfter(node int, d sim.Time) sim.Time
}

// app is a protocol instance driving a set of nodes. The engine
// instantiates one app per shard (so counter updates stay un-contended)
// and the oracle a single one; apps must keep all cross-node state in
// the shared SoA State and touch only fields of nodes they are called
// for.
type app interface {
	// start runs once per owned node before time advances.
	start(f fabric, node int)
	// wake delivers the node's coalesced inputs at the current instant:
	// pkts sorted by (From, Key), and timer reporting whether the
	// node's single-shot timer expired at this instant.
	wake(f fabric, node int, pkts []Packet, timer bool)
}

// dissApp is the multi-source dissemination protocol the sharded kernel
// ships with: K concurrent floods (K ≤ 64), each identified by its
// index, with per-node per-flood duplicate suppression via the SoA
// Heard bitmask. It is the runtime system's program-injection phase
// (Section 5.1) scaled to many simultaneous injection points. All of
// its counters are per-instance and folded after the run, and all of
// its SoA writes are to the woken node, so instances on different
// shards never contend.
type dissApp struct {
	st *State
	// originMask[node] has bit j set when node originates flood j
	// (shared, read-only).
	originMask []uint64
	size       int64

	reached  []int64 // per flood: nodes reached, origin excluded
	forwards int64   // broadcasts performed (origins included)
	ignored  int64   // duplicate receptions suppressed
}

func newDissApp(st *State, originMask []uint64, floods int, size int64) *dissApp {
	return &dissApp{st: st, originMask: originMask, size: size,
		reached: make([]int64, floods)}
}

// start seeds every flood the node originates: mark it heard, then
// broadcast. A crashed origin still counts as having its payload (the
// program image is on the node) but its broadcast is a no-op.
func (a *dissApp) start(f fabric, node int) {
	mask := a.originMask[node]
	if mask == 0 {
		return
	}
	st := a.st
	st.Heard[node] |= mask
	st.Level[node] += int32(bits.OnesCount64(mask))
	st.FirstAt[node] = 0
	for mask != 0 {
		j := bits.TrailingZeros64(mask)
		mask &^= 1 << j
		a.forwards++
		f.broadcast(node, a.size, int64(j))
	}
}

// wake processes one coalesced batch: first receptions are counted and
// re-broadcast, duplicates suppressed. The batch arrives sorted by
// (From, Key) and every update below commutes across nodes, so the
// result is independent of how deliveries interleaved across shards.
func (a *dissApp) wake(f fabric, node int, pkts []Packet, timer bool) {
	_ = timer // the dissemination protocol is purely reactive
	st := a.st
	for _, p := range pkts {
		bit := uint64(1) << uint(p.Key)
		if st.Heard[node]&bit != 0 {
			a.ignored++
			continue
		}
		st.Heard[node] |= bit
		st.Level[node]++
		if st.FirstAt[node] < 0 {
			st.FirstAt[node] = f.now()
		}
		a.reached[p.Key]++
		a.forwards++
		f.broadcast(node, p.Size, p.Key)
	}
}

// fold accumulates another instance's counters (used to merge the
// per-shard apps after a sharded run).
func (a *dissApp) fold(o *dissApp) {
	for j, r := range o.reached {
		a.reached[j] += r
	}
	a.forwards += o.forwards
	a.ignored += o.ignored
}
