package shard

import (
	"math/rand"
	"reflect"
	"testing"

	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/geom"
	"wsnva/internal/sim"
)

// fuzzStep is one scheduled transmission in a node's script: wait some
// positive time, then broadcast size units.
type fuzzStep struct {
	wait sim.Time
	size int64
}

// fuzzRecv is one reception as a node observed it, in arrival order.
type fuzzRecv struct {
	at   sim.Time
	from int
	key  int64
	size int64
}

// fuzzApp drives scripted broadcasts through the timer API and records
// everything each node observed. All records are per-node and written
// only by the node's owner shard, so one instance is safely shared
// across shards (mkApp returns the same pointer for every shard).
type fuzzApp struct {
	st   *State
	plan [][]fuzzStep

	idx   []int
	sends [][]fuzzRecv // per node: own transmissions (at, self, key, size)
	recvs [][]fuzzRecv // per node: receptions in arrival order
	wakes [][]sim.Time // per node: wake instants
}

func newFuzzApp(st *State, plan [][]fuzzStep) *fuzzApp {
	n := st.N
	return &fuzzApp{st: st, plan: plan,
		idx:   make([]int, n),
		sends: make([][]fuzzRecv, n),
		recvs: make([][]fuzzRecv, n),
		wakes: make([][]sim.Time, n),
	}
}

func (a *fuzzApp) start(f fabric, node int) {
	if len(a.plan[node]) > 0 {
		f.wakeAfter(node, a.plan[node][0].wait)
	}
}

func (a *fuzzApp) wake(f fabric, node int, recs []Packet, batch []int32, timer bool) {
	now := f.now()
	a.wakes[node] = append(a.wakes[node], now)
	for _, r := range batch {
		p := &recs[r]
		a.recvs[node] = append(a.recvs[node],
			fuzzRecv{at: now, from: p.From, key: p.Key, size: p.Size})
	}
	if !timer {
		return
	}
	step := a.plan[node][a.idx[node]]
	a.idx[node]++
	key := int64(node)<<16 | int64(a.idx[node])
	a.sends[node] = append(a.sends[node],
		fuzzRecv{at: now, from: node, key: key, size: step.size})
	f.broadcast(node, step.size, key)
	if a.idx[node] < len(a.plan[node]) {
		f.wakeAfter(node, a.plan[node][a.idx[node]].wait)
	}
}

// fuzzNet is the fixed deployment the fuzz target runs on: dense enough
// that every node has cross-shard neighbors under a 2x1 and 2x2 split.
func fuzzNet(tb testing.TB) *deploy.Network {
	tb.Helper()
	terrain := geom.Rect{MinX: 0, MinY: 0, MaxX: 20, MaxY: 20}
	nw := deploy.New(24, terrain, 8, deploy.UniformRandom{}, rand.New(rand.NewSource(42)))
	if !nw.Connected() {
		tb.Fatal("fuzz deployment not connected")
	}
	return nw
}

// decodePlan turns fuzz bytes into per-node broadcast scripts. Waits are
// clamped to [1,8] and sizes to [1,5]; with lookahead 1 under the
// uniform model, nearly every delivery lands within a few units of a
// window edge, which is exactly the boundary the target probes.
func decodePlan(data []byte, n int) [][]fuzzStep {
	plan := make([][]fuzzStep, n)
	for i := 0; i+2 < len(data); i += 3 {
		node := int(data[i]) % n
		if len(plan[node]) >= 8 {
			continue
		}
		plan[node] = append(plan[node], fuzzStep{
			wait: 1 + sim.Time(data[i+1]%8),
			size: 1 + int64(data[i+2]%5),
		})
	}
	return plan
}

func runFuzzApp(tb testing.TB, exec executor, nw *deploy.Network, plan [][]fuzzStep, shards, workers int) (*fuzzApp, runStats) {
	tb.Helper()
	st := NewState(nw)
	a := newFuzzApp(st, plan)
	mk := func(int) app { return a }
	return a, exec(nw, st, cost.NewUniform(), shards, workers, mk, hazards{})
}

// FuzzWindowBoundary feeds random broadcast schedules whose deliveries
// cluster around conservative-window edges and checks, for the engine at
// 1, 2, 4 and 8 shards against the single-kernel oracle:
//
//   - no delivery arrives earlier than send_time + min_delay (here the
//     uniform model's TxLatency, so arrival == send + size exactly);
//   - per-node arrival order is time-monotone (cross-shard injection
//     never reorders against same-shard events);
//   - per-node wake instants are strictly increasing;
//   - every observation (sends, receptions, wakes, energy) is identical
//     to the oracle's.
func FuzzWindowBoundary(f *testing.F) {
	f.Add([]byte{0, 1, 1})
	f.Add([]byte{3, 0, 0, 3, 0, 4, 17, 7, 2})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 2, 1, 1, 5, 2, 3, 9, 0, 1, 23, 6, 4})
	f.Add([]byte{10, 0, 2, 10, 2, 2, 11, 0, 2, 12, 4, 1, 13, 1, 3, 22, 3, 2, 7, 7, 4})

	nw := fuzzNet(f)
	model := cost.NewUniform()

	f.Fuzz(func(t *testing.T, data []byte) {
		plan := decodePlan(data, nw.N())
		oracle, ostats := runFuzzApp(t, oracleExecute, nw, plan, 1, 1)
		checkTiming(t, nw, oracle, model)
		for _, shards := range diffShards {
			got, gstats := runFuzzApp(t, execute, nw, plan, shards, 2)
			checkTiming(t, nw, got, model)
			if !reflect.DeepEqual(got.sends, oracle.sends) ||
				!reflect.DeepEqual(got.recvs, oracle.recvs) ||
				!reflect.DeepEqual(got.wakes, oracle.wakes) {
				t.Fatalf("shards=%d: observations diverge from oracle", shards)
			}
			if gstats.completion != ostats.completion ||
				gstats.delivered != ostats.delivered || gstats.sent != ostats.sent {
				t.Fatalf("shards=%d: stats diverge: %+v vs %+v", shards, gstats, ostats)
			}
			for i := 0; i < nw.N(); i++ {
				if gstats.energy[i] != ostats.energy[i] {
					t.Fatalf("shards=%d: node %d energy %d vs %d",
						shards, i, gstats.energy[i], ostats.energy[i])
				}
			}
		}
	})
}

// checkTiming verifies the conservative-delivery laws on one run's
// observations: every reception matches its sender's transmission at
// exactly send + TxLatency(size) (≥ send + min_delay), and per-node
// arrival and wake orders are monotone.
func checkTiming(t *testing.T, nw *deploy.Network, a *fuzzApp, model *cost.Model) {
	t.Helper()
	minDelay := sim.Time(model.TxLatency(1))
	sendAt := make(map[int64]fuzzRecv)
	for _, sends := range a.sends {
		for _, s := range sends {
			sendAt[s.key] = s
		}
	}
	for node, recvs := range a.recvs {
		var prev sim.Time = -1
		for _, r := range recvs {
			s, ok := sendAt[r.key]
			if !ok {
				t.Fatalf("node %d received key %d nobody sent", node, r.key)
			}
			if r.at != s.at+sim.Time(model.TxLatency(r.size)) {
				t.Fatalf("node %d: key %d arrived at %d, sent at %d size %d (want %d)",
					node, r.key, r.at, s.at, r.size, s.at+sim.Time(model.TxLatency(r.size)))
			}
			if r.at < s.at+minDelay {
				t.Fatalf("node %d: key %d beat the lookahead: arrived %d, sent %d",
					node, r.key, r.at, s.at)
			}
			if r.at < prev {
				t.Fatalf("node %d: arrival order reordered: %d after %d", node, r.at, prev)
			}
			prev = r.at
		}
	}
	for node, wakes := range a.wakes {
		for i := 1; i < len(wakes); i++ {
			if wakes[i] <= wakes[i-1] {
				t.Fatalf("node %d: wake times not strictly increasing: %v", node, wakes)
			}
		}
	}
}
