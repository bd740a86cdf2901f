package shard

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/fault"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/sim"
)

// runFuzzHazApp is runFuzzApp with a hazard tuple attached: the same
// scripted-broadcast app, but run through a lossy channel and/or a
// crash schedule and battery budget. Hazards are rebuilt from the
// Config for every run — the loss stream carries mutable per-sender
// RNG state, so sharing one channel across runs would skew the draws.
func runFuzzHazApp(tb testing.TB, nw *deploy.Network, plan [][]fuzzStep, cfg Config, shards, workers int) (*fuzzApp, runStats) {
	tb.Helper()
	hz, err := buildHazards(nw.N(), &cfg)
	if err != nil {
		tb.Fatalf("buildHazards: %v", err)
	}
	st := NewState(nw)
	a := newFuzzApp(st, plan)
	mk := func(int) app { return a }
	rs, err := execute(nw, st, cost.NewUniform(), shards, workers, mk, hz, nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return a, rs
}

// decodeLoss pulls a loss model out of the first three fuzz bytes:
// byte 0 selects Bernoulli vs Gilbert–Elliott, bytes 1-2 set the
// Bernoulli probability (clamped under 1) and the RNG seed. The rest of
// the data is the broadcast plan.
func decodeLoss(data []byte) (Config, []byte, bool) {
	if len(data) < 3 {
		return Config{}, nil, false
	}
	cfg := Config{Seed: int64(data[2])}
	if data[0]%2 == 0 {
		cfg.Loss = float64(1+data[1]%99) / 100 // 0.01 .. 0.99
	} else {
		cfg.Burst = fault.DefaultBurst()
	}
	return cfg, data[3:], true
}

// FuzzLossyWindowBoundary is FuzzWindowBoundary under a stochastic
// channel: random broadcast schedules clustered around conservative
// window edges, with a fuzz-chosen Bernoulli or Gilbert–Elliott loss
// model. Because loss draws are keyed by (sender, attempt counter)
// rather than by global schedule order, every shard count must drop
// exactly the same packets: the oracle and the sharded runs must agree
// observation-for-observation, and every delivery that does land must
// still respect send + TxLatency.
func FuzzLossyWindowBoundary(f *testing.F) {
	f.Add([]byte{0, 20, 7, 0, 1, 1})
	f.Add([]byte{1, 0, 3, 3, 0, 0, 3, 0, 4, 17, 7, 2})
	f.Add([]byte{0, 80, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 5, 2, 3, 9, 0, 1, 23, 6, 4})
	f.Add([]byte{1, 0, 9, 10, 0, 2, 10, 2, 2, 11, 0, 2, 12, 4, 1, 13, 1, 3, 22, 3, 2})

	nw := fuzzNet(f)
	model := cost.NewUniform()

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, rest, ok := decodeLoss(data)
		if !ok {
			return
		}
		plan := decodePlan(rest, nw.N())
		oracle, ostats := runFuzzHazApp(t, nw, plan, cfg, 1, 1)
		checkTiming(t, nw, oracle, model)
		for _, shards := range []int{2, 4} {
			got, gstats := runFuzzHazApp(t, nw, plan, cfg, shards, 2)
			checkTiming(t, nw, got, model)
			if !reflect.DeepEqual(got.sends, oracle.sends) ||
				!reflect.DeepEqual(got.recvs, oracle.recvs) ||
				!reflect.DeepEqual(got.wakes, oracle.wakes) {
				t.Fatalf("shards=%d: lossy observations diverge from oracle", shards)
			}
			if gstats.completion != ostats.completion ||
				gstats.delivered != ostats.delivered ||
				gstats.sent != ostats.sent || gstats.dropped != ostats.dropped {
				t.Fatalf("shards=%d: lossy stats diverge: %+v vs %+v", shards, gstats, ostats)
			}
			for i := 0; i < nw.N(); i++ {
				if gstats.ledger.Energy(i) != ostats.ledger.Energy(i) {
					t.Fatalf("shards=%d: node %d energy %d vs %d",
						shards, i, gstats.ledger.Energy(i), ostats.ledger.Energy(i))
				}
			}
		}
	})
}

// decodeDeaths pulls a fail-stop hazard tuple out of the fuzz bytes:
// byte 0 optionally arms a battery budget, then up to four (node, at)
// crash pairs, and the remainder becomes the broadcast plan.
func decodeDeaths(data []byte, n int) (Config, []byte, bool) {
	if len(data) < 1 {
		return Config{}, nil, false
	}
	var cfg Config
	if data[0]%4 != 0 {
		cfg.Capacity = cost.Energy(3 + int(data[0])%30)
		cfg.Deplete = true
	}
	data = data[1:]
	var crashes []fault.Crash
	for len(data) >= 2 && len(crashes) < 4 {
		crashes = append(crashes, fault.Crash{
			Node: int(data[0]) % n,
			At:   sim.Time(data[1] % 32),
		})
		data = data[2:]
	}
	cfg.Crashes = fault.At(crashes...)
	return cfg, data, true
}

// FuzzMidRunDeath probes the cross-shard death protocol: fuzz-chosen
// crash schedules and battery budgets kill nodes mid-run, possibly at
// the same instant a window boundary or an in-flight delivery lands.
// Crashes silence a node immediately; depletions grant the dying gasp
// for the rest of the instant. Either way, the sharded runs must match
// the single-kernel oracle exactly.
func FuzzMidRunDeath(f *testing.F) {
	f.Add([]byte{0, 5, 2, 0, 1, 1, 3, 0, 4})
	f.Add([]byte{9, 1, 1, 1, 1, 1, 2, 1, 1, 5, 2, 3, 9, 0, 1, 23, 6, 4})
	f.Add([]byte{0, 10, 8, 10, 9, 10, 0, 2, 10, 2, 2, 11, 0, 2, 12, 4, 1})
	f.Add([]byte{17, 3, 4, 19, 12, 13, 1, 3, 22, 3, 2, 7, 7, 4})

	nw := fuzzNet(f)
	model := cost.NewUniform()

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, rest, ok := decodeDeaths(data, nw.N())
		if !ok {
			return
		}
		plan := decodePlan(rest, nw.N())
		oracle, ostats := runFuzzHazApp(t, nw, plan, cfg, 1, 1)
		checkTiming(t, nw, oracle, model)
		for _, shards := range []int{2, 4} {
			got, gstats := runFuzzHazApp(t, nw, plan, cfg, shards, 2)
			checkTiming(t, nw, got, model)
			if !reflect.DeepEqual(got.sends, oracle.sends) ||
				!reflect.DeepEqual(got.recvs, oracle.recvs) ||
				!reflect.DeepEqual(got.wakes, oracle.wakes) {
				t.Fatalf("shards=%d: observations diverge from oracle under deaths", shards)
			}
			if gstats.completion != ostats.completion ||
				gstats.delivered != ostats.delivered ||
				gstats.sent != ostats.sent || gstats.dropped != ostats.dropped {
				t.Fatalf("shards=%d: stats diverge under deaths: %+v vs %+v", shards, gstats, ostats)
			}
			for i := 0; i < nw.N(); i++ {
				if gstats.ledger.Energy(i) != ostats.ledger.Energy(i) {
					t.Fatalf("shards=%d: node %d energy %d vs %d",
						shards, i, gstats.ledger.Energy(i), ostats.ledger.Energy(i))
				}
			}
		}
	})
}

// TestShardFaultsRaceSmoke is the workload behind the race-shard-faults
// Makefile target: real worker goroutines, a lossy channel, a crash
// schedule, and depletion all active at once, for both the flood and
// labeling apps. Under -race this exercises the shared StreamChannel
// state, the per-shard banks, and the cross-shard outbox handoff.
func TestShardFaultsRaceSmoke(t *testing.T) {
	nw := testNet(t, 200, 60, 10, 23)
	cfg := Config{
		Floods:   4,
		PktSize:  2,
		Loss:     0.15,
		Seed:     77,
		Crashes:  fault.MustRandom(nw.N(), 0.1, 60, 91),
		Capacity: 60,
		Deplete:  true,
		Trace:    true,
	}
	want, err := Run(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Deaths == 0 || want.Dropped == 0 {
		t.Fatalf("degenerate hazard smoke: deaths=%d dropped=%d", want.Deaths, want.Dropped)
	}
	for _, workers := range []int{2, 4} {
		c := cfg
		c.Shards, c.Workers = 8, workers
		got, err := Run(nw, c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Trace, want.Trace) || !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: hazard flood diverges from oracle", workers)
		}
	}

	g := geom.NewSquareGrid(8, 8)
	rng := rand.New(rand.NewSource(13))
	bits := make([]bool, g.N())
	for i := range bits {
		bits[i] = rng.Float64() < 0.5
	}
	m := field.FromBits(g, bits)
	lcfg := LabelConfig{Config: Config{
		Burst:   fault.DefaultBurst(),
		Seed:    5150,
		Crashes: fault.At(fault.Crash{Node: 11, At: 4}, fault.Crash{Node: 52, At: 10}),
		Trace:   true,
	}}
	lwant, err := RunLabeling(m, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		c := lcfg
		c.Shards, c.Workers = 4, workers
		got, err := RunLabeling(m, c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Trace, lwant.Trace) || !reflect.DeepEqual(got, lwant) {
			t.Fatalf("workers=%d: hazard labeling diverges from oracle", workers)
		}
	}
}
