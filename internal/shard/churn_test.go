package shard

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"wsnva/internal/churn"
	"wsnva/internal/sim"
)

// TestChurnDifferential pins the churn path deterministically: a fixed
// deployment under a duty-cycle schedule must actually flip radios
// (Suspends and Resumes both nonzero), and the engine at 1, 2, 4 and 8
// shards must reproduce the oracle's result, trace, and checksum bit for
// bit.
func TestChurnDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 40
	nw := connectedNet(t, n, rng)
	cfg := Config{
		Origins: []int{0, n / 2},
		PktSize: 2,
		Trace:   true,
		Churn: churn.Merge(
			churn.DutyCycle([]int{1, 3, 5, 7, 9, 11}, 8, 5, 48),
			churn.Departures(4, 2, 6),
			churn.Arrivals(20, 2, 6),
		),
	}
	oracle, err := runOracle(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Suspends == 0 || oracle.Resumes == 0 {
		t.Fatalf("churn schedule never fired: suspends=%d resumes=%d",
			oracle.Suspends, oracle.Resumes)
	}
	for _, shards := range diffShards {
		c := cfg
		c.Shards = shards
		c.Workers = 2
		got, err := Run(nw, c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Trace, oracle.Trace) {
			t.Fatalf("shards=%d: trace diverges (%d vs %d bytes)",
				shards, len(got.Trace), len(oracle.Trace))
		}
		if !reflect.DeepEqual(got, oracle) {
			t.Fatalf("shards=%d: result diverges", shards)
		}
		if got.Checksum() != oracle.Checksum() {
			t.Fatalf("shards=%d: checksum %x != oracle %x",
				shards, got.Checksum(), oracle.Checksum())
		}
	}
}

// TestChurnChecksumGate pins backward compatibility of the digest: a
// schedule made entirely of no-op transitions (waking nodes that are
// already awake) applies zero flips and must leave the checksum equal
// to the churn-free run's — the counters only join the digest once a
// flip actually happens.
func TestChurnChecksumGate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nw := connectedNet(t, 30, rng)
	base := Config{Origins: []int{0}, PktSize: 1}
	plain, err := Run(nw, base)
	if err != nil {
		t.Fatal(err)
	}
	noop := base
	noop.Churn = churn.Arrivals(5, 1, 2, 3)
	got, err := Run(nw, noop)
	if err != nil {
		t.Fatal(err)
	}
	if got.Suspends != 0 || got.Resumes != 0 {
		t.Fatalf("no-op schedule flipped radios: suspends=%d resumes=%d",
			got.Suspends, got.Resumes)
	}
	if got.Checksum() != plain.Checksum() {
		t.Fatalf("no-op churn changed checksum: %x != %x",
			got.Checksum(), plain.Checksum())
	}
	real := base
	real.Churn = churn.Departures(5, 1, 2, 3)
	down, err := Run(nw, real)
	if err != nil {
		t.Fatal(err)
	}
	if down.Suspends != 3 {
		t.Fatalf("suspends = %d, want 3", down.Suspends)
	}
	if down.Checksum() == plain.Checksum() {
		t.Fatal("applied churn left the checksum unchanged")
	}
}

// TestChurnDifferentialLabeling runs the labeling program under churn:
// the engine at 1, 2, 4 and 8 shards must stay deep-equal to the oracle,
// and the LabelResult must report the transition counts.
func TestChurnDifferentialLabeling(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	side := 8
	m := randomMap(side, rng)
	cfg := Config{
		Trace: true,
		Churn: churn.Merge(
			churn.Departures(2, 5, 17, 40),
			churn.Arrivals(sim.Time(2*side), 5, 17, 40),
		),
	}
	oracle, err := runLabelingOracle(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Suspends != 3 || oracle.Resumes != 3 {
		t.Fatalf("labeling churn counts: suspends=%d resumes=%d, want 3/3",
			oracle.Suspends, oracle.Resumes)
	}
	for _, shards := range diffShards {
		c := cfg
		c.Shards = shards
		c.Workers = 2
		got, err := RunLabeling(m, c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Trace, oracle.Trace) {
			t.Fatalf("shards=%d: labeling trace diverges", shards)
		}
		if !reflect.DeepEqual(got, oracle) {
			t.Fatalf("shards=%d: labeling result diverges", shards)
		}
		if got.Checksum() != oracle.Checksum() {
			t.Fatalf("shards=%d: labeling checksum diverges", shards)
		}
	}
}

// TestShardChurnRaceSmoke drives a larger churned run at full shard and
// worker parallelism. Its job is to put the churn hot path under the
// race detector (the make race-churn target); correctness is pinned by
// a single checksum comparison against the oracle.
func TestShardChurnRaceSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n := 120
	nw := connectedNet(t, n, rng)
	cfg := Config{
		Origins: []int{0, n / 3, 2 * n / 3},
		PktSize: 1,
		Loss:    0.1,
		Seed:    42,
		Churn:   churn.Poisson(n, 0.3, 80, 99),
	}
	oracle, err := runOracle(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Suspends == 0 {
		t.Fatal("Poisson schedule produced no suspends")
	}
	c := cfg
	c.Shards = 8
	c.Workers = 4
	got, err := Run(nw, c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum() != oracle.Checksum() {
		t.Fatalf("sharded churn checksum %x != oracle %x",
			got.Checksum(), oracle.Checksum())
	}
}
