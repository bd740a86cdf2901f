package shard

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/fault"
	"wsnva/internal/geom"
	"wsnva/internal/sim"
)

func testNet(t testing.TB, n int, side, rng float64, seed int64) *deploy.Network {
	t.Helper()
	terrain := geom.Rect{MinX: 0, MinY: 0, MaxX: side, MaxY: side}
	nw := deploy.New(n, terrain, rng, deploy.UniformRandom{}, rand.New(rand.NewSource(seed)))
	if !nw.Connected() {
		t.Fatalf("test deployment (n=%d, side=%v, range=%v, seed=%d) not connected", n, side, rng, seed)
	}
	return nw
}

// TestPartitionCoversEveryNode: every node has one slot, the shards'
// slot ranges run through [0, n) in shard order, and each range holds
// exactly its tile's nodes, in spatial-bucket order and by ID within a
// bucket.
func TestPartitionCoversEveryNode(t *testing.T) {
	nw := testNet(t, 200, 60, 9, 7)
	cols := int(nw.Terrain.Width()/nw.Range) + 1
	xs, ys := nw.PositionsView()
	bucket := func(id int32) int { return int(ys[id]/nw.Range)*cols + int(xs[id]/nw.Range) }
	for _, shards := range []int{1, 2, 3, 4, 6, 9, 16} {
		p := NewPartition(nw, shards)
		if p.Cols*p.Rows != shards {
			t.Fatalf("shards=%d: %dx%d tiles", shards, p.Cols, p.Rows)
		}
		if p.Start[0] != 0 || int(p.Start[shards]) != nw.N() {
			t.Fatalf("shards=%d: slot ranges span [%d, %d), want [0, %d)", shards, p.Start[0], p.Start[shards], nw.N())
		}
		for s := 0; s < shards; s++ {
			for v := p.Start[s]; v < p.Start[s+1]; v++ {
				id := p.ID[v]
				if p.Slot[id] != v {
					t.Fatalf("shards=%d: ID[%d] = %d but Slot[%d] = %d", shards, v, id, id, p.Slot[id])
				}
				if p.Owner[id] != int32(s) {
					t.Fatalf("node %d in shard %d's range but Owner says %d", id, s, p.Owner[id])
				}
				if v > p.Start[s] {
					prev := p.ID[v-1]
					if b, pb := bucket(id), bucket(prev); b < pb || b == pb && id < prev {
						t.Fatalf("shards=%d: slot %d (node %d, bucket %d) after node %d (bucket %d)", shards, v, id, b, prev, pb)
					}
				}
			}
		}
	}
}

// TestPartitionFollowsDeployOrder: the layout is the deployment's own
// bucket order split by shard. At one shard the slots are that order
// exactly; at 2 and 4 shards each shard's range is the order filtered to
// the shard's nodes. Checked on a random deployment and on the labeling
// grid, which FromAdjacency builds.
func TestPartitionFollowsDeployOrder(t *testing.T) {
	for _, nw := range []*deploy.Network{testNet(t, 300, 60, 9, 11), labelDeployment(geom.NewSquareGrid(12, 120))} {
		order := nw.BucketOrder()
		if p := NewPartition(nw, 1); !slices.Equal(p.ID, order) {
			t.Fatalf("n=%d, 1 shard: slots %v, bucket order %v", nw.N(), p.ID, order)
		}
		for _, shards := range []int{2, 4} {
			p := NewPartition(nw, shards)
			for s := 0; s < shards; s++ {
				var want []int32
				for _, id := range order {
					if p.Owner[id] == int32(s) {
						want = append(want, id)
					}
				}
				if got := p.ID[p.Start[s]:p.Start[s+1]]; len(want) == 0 || !slices.Equal(got, want) {
					t.Fatalf("n=%d, shards=%d: shard %d's slots %v, bucket order filtered %v", nw.N(), shards, s, got, want)
				}
			}
		}
	}
}

// checkFloodBFS pins a single loss-free flood from node 0 to what a BFS
// from the origin predicts, on the oracle and on the engine at 1 and 2
// shards: every node of the
// origin's component forwards once and first hears the flood at
// depth × hop latency; every broadcast reaches each neighbor, so the
// duplicates are Σdeg − reached and each component node spends
// size × (1 + deg) under the uniform model. It returns the number of
// nodes the flood reached, origin excluded.
func checkFloodBFS(t *testing.T, nw *deploy.Network) int {
	t.Helper()
	const size = 2
	hop := sim.Time(cost.NewUniform().TxLatency(size))
	depth := make([]int, nw.N())
	for i := range depth {
		depth[i] = -1
	}
	depth[0] = 0
	queue := []int{0}
	maxDepth, sumDeg := 0, 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		maxDepth = max(maxDepth, depth[v])
		sumDeg += nw.Degree(v)
		for _, u := range nw.Neighbors(v) {
			if depth[u] < 0 {
				depth[u] = depth[v] + 1
				queue = append(queue, int(u))
			}
		}
	}
	reached := 0
	for _, d := range depth {
		if d > 0 {
			reached++
		}
	}
	for _, r := range []struct {
		name   string
		run    func(*deploy.Network, Config) (*Result, error)
		shards int
	}{{"oracle", runOracle, 1}, {"shards=1", Run, 1}, {"shards=2", Run, 2}} {
		res, err := r.run(nw, Config{Origins: []int{0}, PktSize: size, Shards: r.shards, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Reached[0] != int64(reached) {
			t.Errorf("%s: reached %d, want %d", r.name, res.Reached[0], reached)
		}
		if res.Forwards != int64(reached+1) {
			t.Errorf("%s: forwards %d, want %d", r.name, res.Forwards, reached+1)
		}
		if want := int64(sumDeg - reached); res.Ignored != want {
			t.Errorf("%s: ignored %d, want %d", r.name, res.Ignored, want)
		}
		if want := sim.Time(maxDepth+1) * hop; res.Completion != want {
			t.Errorf("%s: completion %d, want %d", r.name, res.Completion, want)
		}
		var total cost.Energy
		for v, d := range depth {
			var energy cost.Energy
			first := sim.Time(-1)
			if d >= 0 {
				energy = size * cost.Energy(1+nw.Degree(v))
				first = sim.Time(d) * hop
			}
			total += energy
			if res.Energy[v] != energy || res.FirstAt[v] != first || (res.Heard[v] != 0) != (d >= 0) {
				t.Fatalf("%s: node %d energy %d first %d heard %b, want %d %d (depth %d)",
					r.name, v, res.Energy[v], res.FirstAt[v], res.Heard[v], energy, first, d)
			}
		}
		if res.Total != total {
			t.Errorf("%s: total energy %d, want %d", r.name, res.Total, total)
		}
	}
	return reached
}

// TestOracleMatchesFlooder pins the single-kernel oracle, the flooder
// every engine run is compared to, to the BFS prediction on a connected
// deployment, and checks the engine at 1 and 2 shards agrees with it.
func TestOracleMatchesFlooder(t *testing.T) {
	checkFloodBFS(t, testNet(t, 150, 50, 10, 3))
}

// TestFloodBFSReachesEveryone floods a dense connected deployment: every
// node but the origin hears it and forwards it exactly once.
func TestFloodBFSReachesEveryone(t *testing.T) {
	terrain := geom.Rect{MaxX: 60, MaxY: 60}
	for s := int64(1); s < 51; s++ {
		nw := deploy.New(150, terrain, 12, deploy.UniformRandom{}, rand.New(rand.NewSource(s)))
		if !nw.Connected() {
			continue
		}
		if reached := checkFloodBFS(t, nw); reached != nw.N()-1 {
			t.Errorf("reached %d, want %d", reached, nw.N()-1)
		}
		return
	}
	t.Fatal("no connected deployment")
}

// TestFloodBFSPartitioned checks that nothing leaks past the origin's
// component: of three nodes, only the origin's one neighbor hears it.
func TestFloodBFSPartitioned(t *testing.T) {
	nw := deploy.FromPoints([]geom.Point{{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 50, Y: 50}},
		geom.Rect{MaxX: 60, MaxY: 60}, 3)
	if reached := checkFloodBFS(t, nw); reached != 1 {
		t.Errorf("reached %d, want only the in-component node", reached)
	}
}

// TestShardCountInvariance is the core differential check: the same
// workload through the engine at 1, 2, 4, and 6 shards yields results
// deeply equal to the oracle's and byte-identical canonical traces.
func TestShardCountInvariance(t *testing.T) {
	nw := testNet(t, 180, 55, 10, 11)
	crashes := fault.At(fault.Crash{Node: 17, At: 0}, fault.Crash{Node: 90, At: 0}, fault.Crash{Node: 140, At: 0})
	base := Config{Floods: 3, PktSize: 3, Crashes: crashes, Capacity: 10_000, Trace: true}

	want, err := runOracle(nw, base)
	if err != nil {
		t.Fatal(err)
	}
	if want.Reached[0] == 0 || want.Trace == nil {
		t.Fatalf("degenerate oracle run: %+v", want)
	}
	for _, shards := range []int{1, 2, 4, 6} {
		cfg := base
		cfg.Shards, cfg.Workers = shards, 1
		got, err := Run(nw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Trace, want.Trace) {
			t.Fatalf("shards=%d: canonical trace diverges from oracle", shards)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: result diverges from oracle\n got: %+v\nwant: %+v", shards, got, want)
		}
		if got.Checksum() != want.Checksum() {
			t.Fatalf("shards=%d: checksum diverges", shards)
		}
	}
}

// TestEngineRaceSmokeMultiWorker drives the barrier/inbox handoff with
// real worker goroutines; the race-core Makefile target runs this under
// -race to exercise the double-buffered exchange.
func TestEngineRaceSmokeMultiWorker(t *testing.T) {
	nw := testNet(t, 300, 70, 10, 5)
	want, err := runOracle(nw, Config{Floods: 8, PktSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		got, err := Run(nw, Config{Floods: 8, PktSize: 2, Shards: 8, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Checksum() != want.Checksum() {
			t.Fatalf("workers=%d: checksum diverges from oracle", workers)
		}
	}
}

func TestCrashedStayUnreachedAndBatteryAccounts(t *testing.T) {
	nw := testNet(t, 120, 40, 9, 19)
	crashes := fault.At(fault.Crash{Node: 30, At: 0}, fault.Crash{Node: 31, At: 0})
	const capacity = 500
	res, err := Run(nw, Config{Shards: 4, Workers: 2, Floods: 2, Crashes: crashes, Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{30, 31} {
		if res.Heard[id] != 0 || res.Level[id] != 0 || res.FirstAt[id] != -1 {
			t.Errorf("crashed node %d has reception state: heard=%b level=%d first=%d",
				id, res.Heard[id], res.Level[id], res.FirstAt[id])
		}
		if res.Energy[id] != 0 {
			t.Errorf("crashed node %d spent energy %d", id, res.Energy[id])
		}
	}
	for i := 0; i < nw.N(); i++ {
		if res.Battery[i] != capacity-int64(res.Energy[i]) {
			t.Fatalf("node %d battery %d, want %d", i, res.Battery[i], capacity-int64(res.Energy[i]))
		}
	}
	if res.Dropped == 0 {
		t.Error("expected dead-receiver drops with crashed nodes present")
	}
}

func TestConfigValidation(t *testing.T) {
	nw := testNet(t, 30, 20, 8, 1)
	bad := []Config{
		{PktSize: -1},
		{Floods: 65},
		{Origins: []int{-1}},
		{Origins: []int{30}},
		{Origins: []int{0, 1}, Floods: 3},
		{Loss: -0.1},
		{Loss: 1},
		{Loss: math.NaN()},
		{Loss: 0.2, Burst: fault.DefaultBurst()},
		{Burst: fault.GilbertElliott{PGoodBad: 2, LossBad: 0.5}},
		{Deplete: true},
		{Deplete: true, Capacity: -5},
		{Crashes: fault.Schedule{{Node: -1, At: 5}}},
		{Crashes: fault.Schedule{{Node: 30, At: 5}}},
		{Crashes: fault.Schedule{{Node: 0, At: -2}}},
	}
	for i, cfg := range bad {
		if _, err := Run(nw, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}
