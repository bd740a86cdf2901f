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
		var crashed []bool
		if rng.Intn(2) == 1 {
			crashed = make([]bool, n)
			for i := range crashed {
				crashed[i] = rng.Float64() < 0.1
			}
		}
		cfg := Config{
			Origins: origins,
			PktSize: 1 + int64(rng.Intn(4)),
			Crashed: crashed,
			Trace:   true,
		}
		randomHazards(&cfg, n, rng)
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
		cfg := LabelConfig{Config: Config{Trace: true}}
		randomHazards(&cfg.Config, side*side, rng)
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
