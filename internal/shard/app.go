package shard

import (
	"math/bits"

	"wsnva/internal/sim"
)

// fabric is what an app sees: a simulated clock, broadcast and unicast
// primitives, and a single-shot wake timer, all in node IDs. Every
// engine shard (shardRun) implements it, and so does the test-only
// single-kernel oracle (singleFab, oracle_test.go), which is what lets
// the differential tests run one app on both.
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
	// land takes slot v's batch at the current instant and whether v is
	// live, once per listed node before its wake: the receptions' (or
	// drops') counts, Rx charge and trace events are due here.
	land(v int32, recs []Packet, batch []int32, live bool)
}

// app is a protocol instance driving a set of nodes. The engine
// instantiates one app per shard (so counter updates stay un-contended);
// the test oracle instantiates a single one. The per-shard instances of
// one run share the protocol's per-node state, indexed by node ID — the
// flood app's arrays, the labeling app's program instances — and each
// touches only the entries of nodes it is called for, which its shard
// owns; counters stay per instance and are folded after the run.
type app interface {
	// start runs once per owned node before time advances.
	start(f fabric, node int)
	// wake delivers the node's coalesced inputs at the current instant:
	// its packets are recs[batch[0]], recs[batch[1]], … in (From, Key)
	// order, indices into the instant's record table, and timer reports
	// whether the node's single-shot timer expired at this instant. Both
	// slices belong to the fabric and are reused after the call.
	wake(f fabric, node int, recs []Packet, batch []int32, timer bool)
}

// dissApp is the multi-source dissemination protocol the sharded kernel
// ships with: K concurrent floods (K ≤ 64), each identified by its
// index, with per-node per-flood duplicate suppression via the heard
// bitmask. It is the runtime system's program-injection phase
// (Section 5.1) scaled to many simultaneous injection points. All of
// its counters are per-instance and folded after the run, and all of
// its writes to the shared floodState are to the woken node, so
// instances on different shards never contend.
type dissApp struct {
	fs *floodState
	// originMask[node] has bit j set when node originates flood j
	// (shared, read-only).
	originMask []uint64
	size       int64

	reached  []int64 // per flood: nodes reached, origin excluded
	forwards int64   // broadcasts performed (origins included)
	ignored  int64   // duplicate receptions suppressed
}

// floodState is one dissemination run's per-node protocol state, shared
// by its per-shard dissApp instances.
type floodState struct {
	// heard is a bitmask of flood indices already received (bit j =
	// flood j), the duplicate-suppression state.
	heard []uint64
	// level counts the distinct floods the node has heard.
	level []int32
	// firstAt is the time of the node's first reception (origins: 0), or
	// -1 if the node was never reached.
	firstAt []sim.Time
}

func newFloodState(n int) *floodState {
	fs := &floodState{heard: make([]uint64, n), level: make([]int32, n), firstAt: make([]sim.Time, n)}
	for i := range fs.firstAt {
		fs.firstAt[i] = -1
	}
	return fs
}

func newDissApp(fs *floodState, originMask []uint64, floods int, size int64) *dissApp {
	return &dissApp{fs: fs, originMask: originMask, size: size,
		reached: make([]int64, floods)}
}

// start seeds every flood the node originates: mark it heard, then
// broadcast. Start runs before any event, so even an origin that
// crashes at time 0 sends its first broadcast.
func (a *dissApp) start(f fabric, node int) {
	mask := a.originMask[node]
	if mask == 0 {
		return
	}
	fs := a.fs
	fs.heard[node] |= mask
	fs.level[node] += int32(bits.OnesCount64(mask))
	fs.firstAt[node] = 0
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
func (a *dissApp) wake(f fabric, node int, recs []Packet, batch []int32, timer bool) {
	_ = timer // the dissemination protocol is purely reactive
	fs := a.fs
	heard, ignored := fs.heard[node], int64(0)
	for _, r := range batch {
		p := &recs[r]
		bit := uint64(1) << uint(p.Key)
		if heard&bit != 0 {
			ignored++
			continue
		}
		heard |= bit
		fs.level[node]++
		if fs.firstAt[node] < 0 {
			fs.firstAt[node] = f.now()
		}
		a.reached[p.Key]++
		a.forwards++
		f.broadcast(node, p.Size, p.Key)
	}
	fs.heard[node] = heard
	a.ignored += ignored
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
