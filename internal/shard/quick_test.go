package shard

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"wsnva/internal/churn"
	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/fault"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/parallel"
	"wsnva/internal/sim"
)

// randomMap rolls a side×side binary feature map (side a power of two).
func randomMap(side int, rng *rand.Rand) *field.BinaryMap {
	g := geom.NewSquareGrid(side, float64(side))
	bits := make([]bool, g.N())
	for i := range bits {
		bits[i] = rng.Float64() < 0.45
	}
	return field.FromBits(g, bits)
}

// randomHazards rolls the stochastic and fail-stop knobs for one
// differential trial: a loss model (none, Bernoulli, or bursty
// Gilbert–Elliott), a mid-run crash schedule, a battery budget with
// depletion armed, and a Poisson duty-cycle churn schedule. Every
// combination must leave the engine's run byte-identical to the oracle's.
func randomHazards(cfg *Config, n int, rng *rand.Rand) {
	switch rng.Intn(3) {
	case 1:
		cfg.Loss = 0.05 + 0.25*rng.Float64()
		cfg.Seed = rng.Int63()
	case 2:
		cfg.Burst = fault.DefaultBurst()
		cfg.Seed = rng.Int63()
	}
	if rng.Intn(2) == 1 {
		cfg.Crashes = fault.MustRandom(n, 0.05+0.15*rng.Float64(), 40, rng.Int63())
	}
	if rng.Intn(2) == 1 {
		// Budgets in this band kill a fraction of the nodes mid-flood —
		// low enough to exercise depletion, high enough that some
		// protocol activity survives it.
		cfg.Capacity = cost.Energy(5 + rng.Intn(40))
		cfg.Deplete = true
	}
	if rng.Intn(2) == 1 {
		// Duty-cycle churn: Poisson sleep/wake toggles across the flood
		// window, so suspended receivers drop traffic mid-run and resume
		// with their flood state intact.
		cfg.Churn = churn.Poisson(n, 0.1+0.4*rng.Float64(), 60, rng.Int63())
	}
}

// TestQuickDifferential is the engine's property test: for random small
// grids, random seeds, random workloads, random hazard tuples (loss
// model, crash schedule, battery budget, churn), and shard counts in
// {1, 2, 4, 8}, the engine's output and JSONL trace are byte-identical
// to the single-kernel oracle's.
func TestQuickDifferential(t *testing.T) {
	count := 30
	if testing.Short() {
		count = 8
	}
	prop := func(seed uint32) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 25 + rng.Intn(46) // 25..70 nodes
		nw := connectedNet(t, n, rng)

		floods := 1 + rng.Intn(4)
		origins := make([]int, floods)
		for j := range origins {
			origins[j] = rng.Intn(n)
		}
		// About a tenth of the nodes crash at time 0 in half the trials;
		// their crashes merge into the hazard schedule, earliest first.
		var down []fault.Crash
		if rng.Intn(2) == 1 {
			for i := 0; i < n; i++ {
				if rng.Float64() < 0.1 {
					down = append(down, fault.Crash{Node: i, At: 0})
				}
			}
		}
		cfg := Config{
			Origins: origins,
			PktSize: 1 + int64(rng.Intn(4)),
			Trace:   true,
		}
		randomHazards(&cfg, n, rng)
		if len(down) > 0 {
			cfg.Crashes = fault.At(append(down, cfg.Crashes...)...)
		}
		oracle, err := runOracle(nw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range diffShards {
			c := cfg
			c.Shards = shards
			c.Workers = 1 + rng.Intn(3)
			got, err := Run(nw, c)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Trace, oracle.Trace) {
				t.Logf("seed=%d shards=%d: trace diverges (%d vs %d bytes)",
					seed, shards, len(got.Trace), len(oracle.Trace))
				return false
			}
			if !reflect.DeepEqual(got, oracle) {
				t.Logf("seed=%d shards=%d: result diverges", seed, shards)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDifferentialLabeling runs the same differential property
// over the labeling program: random binary maps, hazards, and shard
// counts in {1, 2, 4, 8} must produce deep-equal label results and
// byte-identical traces against the oracle.
func TestQuickDifferentialLabeling(t *testing.T) {
	count := 20
	if testing.Short() {
		count = 6
	}
	prop := func(seed uint32) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		side := []int{4, 8}[rng.Intn(2)]
		m := randomMap(side, rng)
		cfg := Config{Trace: true}
		randomHazards(&cfg, side*side, rng)
		// Crash times must land inside the short labeling run to matter;
		// re-roll them into a tight window.
		if cfg.Crashes != nil {
			cfg.Crashes = fault.MustRandom(side*side, 0.08, sim.Time(4*side), rng.Int63())
		}
		oracle, err := runLabelingOracle(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range diffShards {
			c := cfg
			c.Shards = shards
			c.Workers = 1 + rng.Intn(3)
			got, err := RunLabeling(m, c)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Trace, oracle.Trace) {
				t.Logf("seed=%d shards=%d: labeling trace diverges (%d vs %d bytes)",
					seed, shards, len(got.Trace), len(oracle.Trace))
				return false
			}
			if !reflect.DeepEqual(got, oracle) {
				t.Logf("seed=%d shards=%d: labeling result diverges", seed, shards)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(err)
	}
}

// connectedNet builds a small random deployment, redrawing until the
// disk graph is connected (dense parameters make the first draw succeed
// almost always).
func connectedNet(t *testing.T, n int, rng *rand.Rand) *deploy.Network {
	t.Helper()
	terrain := geom.Rect{MinX: 0, MinY: 0, MaxX: 30, MaxY: 30}
	for attempt := 0; attempt < 50; attempt++ {
		nw := deploy.New(n, terrain, 9, deploy.UniformRandom{}, rng)
		if nw.Connected() {
			return nw
		}
	}
	t.Fatalf("no connected %d-node deployment in 50 attempts", n)
	return nil
}

// randomPartition gives every node a random owner among shards and each
// shard's slots a random order: a layout no tiling produces, with nearly
// every edge crossing shards.
func randomPartition(n, shards int, rng *rand.Rand) *Partition {
	owner := make([]int32, n)
	for i := range owner {
		owner[i] = int32(rng.Intn(shards))
	}
	order := make([]int32, n)
	for i, id := range rng.Perm(n) {
		order[i] = int32(id)
	}
	return newLayout(shards, owner, order)
}

// onPartition is execute on part instead of NewPartition's tiles.
func onPartition(part *Partition) executor {
	return func(nw *deploy.Network, st *State, model *cost.Model, _, workers int,
		mkApp func(int) app, hz hazards) runStats {
		return newEngine(nw, st, part, model, sim.Time(model.TxLatency(1)),
			parallel.New(workers), mkApp, hz).execute()
	}
}

// TestQuickPartitionInvariance: results do not depend on the layout.
// Floods and labeling runs, lossless and under a random hazard tuple, on
// random partitions of 2, 4 and 8 shards driven by 2 or 4 workers, give
// the oracle's result and canonical trace.
func TestQuickPartitionInvariance(t *testing.T) {
	count := 30
	if testing.Short() {
		count = 8
	}
	prop := func(seed uint32) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 25 + rng.Intn(46)
		nw := connectedNet(t, n, rng)
		side := []int{4, 8}[rng.Intn(2)]
		m := randomMap(side, rng)
		for _, hazardous := range []bool{false, true} {
			cfg := Config{Origins: []int{rng.Intn(n), rng.Intn(n)}, PktSize: 1 + int64(rng.Intn(4)), Trace: true}
			lcfg := Config{Trace: true}
			if hazardous {
				randomHazards(&cfg, n, rng)
				randomHazards(&lcfg, side*side, rng)
				if lcfg.Crashes != nil {
					lcfg.Crashes = fault.MustRandom(side*side, 0.08, sim.Time(4*side), rng.Int63())
				}
			}
			want, err := runOracle(nw, cfg)
			if err != nil {
				t.Fatal(err)
			}
			lwant, err := runLabelingOracle(m, lcfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 4, 8} {
				workers := 2 + 2*rng.Intn(2)
				c := cfg
				c.Shards, c.Workers = shards, workers
				got, err := runFloods(nw, c, onPartition(randomPartition(n, shards, rng)))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Trace, want.Trace) || !reflect.DeepEqual(got, want) {
					t.Logf("seed=%d shards=%d hazards=%v: flood diverges from the oracle", seed, shards, hazardous)
					return false
				}
				lc := lcfg
				lc.Shards, lc.Workers = shards, workers
				lgot, err := runLabeling(m, lc, onPartition(randomPartition(side*side, shards, rng)))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(lgot.Trace, lwant.Trace) || !reflect.DeepEqual(lgot, lwant) {
					t.Logf("seed=%d shards=%d hazards=%v: labeling diverges from the oracle", seed, shards, hazardous)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(err)
	}
}
