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

// fuzzStep is one scripted transmission in a node's script: let wait
// wakes pass after the previous step, then broadcast size units. A
// script's first step goes out at start, whatever its wait.
type fuzzStep struct {
	wait int
	size int64
}

// fuzzRecv is one reception as a node observed it, in arrival order.
type fuzzRecv struct {
	at   sim.Time
	from int
	key  int64
	size int64
}

// fuzzApp drives scripted broadcasts from each node's start and its
// wakes, and records everything each node observed. All records are
// per-node and written only by the node's owner shard, so one instance
// is safely shared across shards (mkApp returns the same pointer for
// every shard).
type fuzzApp struct {
	plan [][]fuzzStep

	idx    []int        // per node: the next step of its script
	waited []int        // per node: wakes since its last send
	sends  [][]fuzzRecv // per node: own transmissions (at, self, key, size)
	recvs  [][]fuzzRecv // per node: receptions in arrival order
	wakes  [][]sim.Time // per node: wake instants
}

func newFuzzApp(plan [][]fuzzStep) *fuzzApp {
	n := len(plan)
	return &fuzzApp{plan: plan,
		idx:    make([]int, n),
		waited: make([]int, n),
		sends:  make([][]fuzzRecv, n),
		recvs:  make([][]fuzzRecv, n),
		wakes:  make([][]sim.Time, n),
	}
}

func (a *fuzzApp) start(f fabric, node int) {
	if len(a.plan[node]) > 0 {
		a.send(f, node)
	}
}

func (a *fuzzApp) wake(f fabric, node int, recs []Packet, batch []int32) {
	now := f.now()
	a.wakes[node] = append(a.wakes[node], now)
	for _, r := range batch {
		p := &recs[r]
		a.recvs[node] = append(a.recvs[node],
			fuzzRecv{at: now, from: p.From, key: p.Key, size: p.Size})
	}
	i := a.idx[node]
	if i == len(a.plan[node]) {
		return
	}
	if a.waited[node] < a.plan[node][i].wait {
		a.waited[node]++
		return
	}
	a.waited[node] = 0
	a.send(f, node)
}

// send broadcasts the node's next step, keyed by the node and the step.
func (a *fuzzApp) send(f fabric, node int) {
	step := a.plan[node][a.idx[node]]
	a.idx[node]++
	key := int64(node)<<16 | int64(a.idx[node])
	a.sends[node] = append(a.sends[node],
		fuzzRecv{at: f.now(), from: node, key: key, size: step.size})
	f.broadcast(node, step.size, key)
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
// clamped to [0,7] wakes and sizes to [1,5]. With lookahead 1 under the
// uniform model every window is one unit wide, so each delivery crosses
// a window edge, and a send from a wake starts the next transmission at
// the instant a delivery landed.
func decodePlan(data []byte, n int) [][]fuzzStep {
	plan := make([][]fuzzStep, n)
	for i := 0; i+2 < len(data); i += 3 {
		node := int(data[i]) % n
		if len(plan[node]) >= 8 {
			continue
		}
		plan[node] = append(plan[node], fuzzStep{
			wait: int(data[i+1] % 8),
			size: 1 + int64(data[i+2]%5),
		})
	}
	return plan
}

// runFuzzApp runs the scripted app on exec under cfg's hazards. Hazards
// are rebuilt from the Config for every run — the loss stream carries
// mutable per-sender RNG state, so sharing one channel across runs would
// skew the draws.
func runFuzzApp(tb testing.TB, exec executor, nw *deploy.Network, plan [][]fuzzStep, cfg Config, shards, workers int) (*fuzzApp, runStats) {
	tb.Helper()
	hz, err := buildHazards(nw.N(), &cfg)
	if err != nil {
		tb.Fatalf("buildHazards: %v", err)
	}
	a := newFuzzApp(plan)
	mk := func(int) app { return a }
	return a, exec(nw, NewState(nw), cost.NewUniform(), shards, workers, mk, hz)
}

// fuzzTarget is one shard fuzz target: its seed corpus, and how it
// decodes an input into a hazard Config and a broadcast plan on n nodes
// (ok false: the input is too short).
type fuzzTarget struct {
	seeds  [][]byte
	decode func(data []byte, n int) (cfg Config, plan [][]fuzzStep, ok bool)
}

// run adds the target's seeds and fuzzes on fuzzNet: the oracle and the
// engine at 1, 2, 4 and 8 shards must each pass checkTiming, and every
// engine run must equal the oracle in its observations (sends,
// receptions, wakes), its completion time, its sent, delivered and
// dropped counts, and every node's energy.
func (ft fuzzTarget) run(f *testing.F) {
	for _, s := range ft.seeds {
		f.Add(s)
	}
	nw := fuzzNet(f)
	model := cost.NewUniform()

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, plan, ok := ft.decode(data, nw.N())
		if !ok {
			return
		}
		oracle, ostats := runFuzzApp(t, oracleExecute, nw, plan, cfg, 1, 1)
		checkTiming(t, oracle, model)
		for _, shards := range diffShards {
			got, gstats := runFuzzApp(t, execute, nw, plan, cfg, shards, 2)
			checkTiming(t, got, model)
			if !reflect.DeepEqual(got.sends, oracle.sends) ||
				!reflect.DeepEqual(got.recvs, oracle.recvs) ||
				!reflect.DeepEqual(got.wakes, oracle.wakes) {
				t.Fatalf("shards=%d: observations diverge from oracle", shards)
			}
			if gstats.completion != ostats.completion ||
				gstats.delivered != ostats.delivered ||
				gstats.sent != ostats.sent || gstats.dropped != ostats.dropped {
				t.Fatalf("shards=%d: stats diverge: %+v vs %+v", shards, gstats, ostats)
			}
			for i := range ostats.energy {
				if gstats.energy[i] != ostats.energy[i] {
					t.Fatalf("shards=%d: node %d energy %d vs %d",
						shards, i, gstats.energy[i], ostats.energy[i])
				}
			}
		}
	})
}

// windowTarget is FuzzWindowBoundary's: a clean channel, the whole input
// a plan.
var windowTarget = fuzzTarget{
	seeds: [][]byte{
		{0, 1, 1},
		{3, 0, 0, 3, 0, 4, 17, 7, 2},
		{1, 1, 1, 1, 1, 1, 2, 1, 1, 5, 2, 3, 9, 0, 1, 23, 6, 4},
		{10, 0, 2, 10, 2, 2, 11, 0, 2, 12, 4, 1, 13, 1, 3, 22, 3, 2, 7, 7, 4},
		{0, 0, 1, 0, 0, 2, 1, 0, 1, 1, 1, 1, 2, 0, 2, 2, 0, 3, 21, 2, 4, 21, 0, 1, 11, 3, 5, 11, 1, 2},
		// A window one unit too wide wakes node 22 twice at time 2.
		{1, 0, 1, 7, 0, 0, 1, 0, 0, 0, 0, 3, 0, 0, 3},
	},
	decode: func(data []byte, n int) (Config, [][]fuzzStep, bool) {
		return Config{}, decodePlan(data, n), true
	},
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
func FuzzWindowBoundary(f *testing.F) { windowTarget.run(f) }

// TestFuzzSeedsSendFromWakesAcrossShards: on every shard fuzz target, at
// least one seed, run on the engine at 2 shards, delivers a packet that
// a node broadcast from a wake to a node on the other shard. That is a
// send at an instant a delivery landed, handed across the window edge,
// which is what the targets probe; without it their seed runs would
// check only the start phase's sends.
func TestFuzzSeedsSendFromWakesAcrossShards(t *testing.T) {
	nw := fuzzNet(t)
	owner := NewPartition(nw, 2).Owner
	for name, ft := range map[string]fuzzTarget{
		"FuzzWindowBoundary":      windowTarget,
		"FuzzLossyWindowBoundary": lossyTarget,
		"FuzzMidRunDeath":         deathTarget,
	} {
		reached := false
		for _, data := range ft.seeds {
			cfg, plan, ok := ft.decode(data, nw.N())
			if !ok {
				continue
			}
			if a, _ := runFuzzApp(t, execute, nw, plan, cfg, 2, 2); a.wakeSendCrossed(owner) {
				reached = true
				break
			}
		}
		if !reached {
			t.Errorf("%s: no seed delivers a wake's broadcast across shards at 2 shards", name)
		}
	}
}

// wakeSendCrossed reports whether some node received a packet its sender
// broadcast from a wake (after time 0) and whose sender lies on another
// shard under owner (Partition.Owner).
func (a *fuzzApp) wakeSendCrossed(owner []int32) bool {
	fromWake := make(map[int64]bool)
	for _, sends := range a.sends {
		for _, s := range sends {
			fromWake[s.key] = s.at > 0
		}
	}
	for node, recvs := range a.recvs {
		for _, r := range recvs {
			if fromWake[r.key] && owner[r.from] != owner[node] {
				return true
			}
		}
	}
	return false
}

// checkTiming verifies the conservative-delivery laws on one run's
// observations: every reception matches its sender's transmission at
// exactly send + TxLatency(size) (≥ send + min_delay), and per-node
// arrival and wake orders are monotone.
func checkTiming(t *testing.T, a *fuzzApp, model *cost.Model) {
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
