package shard

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"wsnva/internal/cost"
	"wsnva/internal/fault"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/sim"
	"wsnva/internal/trace"
	"wsnva/internal/trace/check"
)

// Golden canonical traces pin the exact event stream — every Tx, Rx,
// Drop, Charge, and Death, canonically ordered — of two hazard-heavy
// reference runs. Any change to loss draws, death semantics, charge
// accounting, or canonical ordering shows up as a byte diff here before
// it can silently shift the physics. After an INTENDED semantic change,
// regenerate with:
//
//	UPDATE_GOLDEN=1 go test ./internal/shard -run TestGolden
//
// and review the trace diff like any other code change.

// goldenLabelingRun is the 8x8 lossy labeling reference: Bernoulli loss
// plus two mid-run crashes, run at shard count 4 (the differential
// suite already pins shards 1, 2, 4 to identical traces, so the golden
// doubles as an oracle pin).
func goldenLabelingRun(t *testing.T) []byte {
	t.Helper()
	g := geom.NewSquareGrid(8, 8)
	rng := rand.New(rand.NewSource(5))
	bits := make([]bool, g.N())
	for i := range bits {
		bits[i] = rng.Float64() < 0.5
	}
	res, err := RunLabeling(field.FromBits(g, bits), Config{
		Shards:  4,
		Workers: 2,
		Loss:    0.12,
		Seed:    424242,
		Crashes: fault.At(fault.Crash{Node: 27, At: 3}, fault.Crash{Node: 50, At: 9}),
		Trace:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// goldenDepletionRun is the battery-death reference: a three-flood
// dissemination over a 120-node deployment with a budget low enough
// that relays die mid-flood, exercising dying-gasp charges and
// dead-receiver drops.
func goldenDepletionRun(t *testing.T) []byte {
	t.Helper()
	nw := testNet(t, 120, 40, 9, 19)
	res, err := Run(nw, Config{
		Shards:   4,
		Workers:  2,
		Floods:   3,
		PktSize:  2,
		Capacity: 25,
		Deplete:  true,
		Trace:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deaths == 0 {
		t.Fatal("golden depletion run killed nobody; budget no longer bites")
	}
	return res.Trace
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: canonical trace diverges from golden (%d vs %d bytes);\n"+
			"if the semantic change is intended, regenerate with UPDATE_GOLDEN=1 and review the diff",
			name, len(got), len(want))
	}
}

func TestGoldenLabelingLossyTrace(t *testing.T) {
	checkGolden(t, "labeling_lossy.trace.jsonl", goldenLabelingRun(t))
}

func TestGoldenDepletionTrace(t *testing.T) {
	checkGolden(t, "flood_depletion.trace.jsonl", goldenDepletionRun(t))
}

// TestGoldenTracesLawful replays both golden traces through the trace
// checker with the shard-consistency invariant armed: MinDelay set to
// the engine's lookahead means no reception (and no dead-receiver drop)
// may land earlier than its transmission plus one window — the offline
// form of "no delivery is ever scheduled into a shard's executed past".
func TestGoldenTracesLawful(t *testing.T) {
	minDelay := sim.Time(cost.NewUniform().TxLatency(1))
	for _, name := range []string{"labeling_lossy.trace.jsonl", "flood_depletion.trace.jsonl"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
		}
		events, err := trace.Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(events) == 0 {
			t.Fatalf("%s: empty golden trace", name)
		}
		vs := check.Run(events, check.Options{LedgerTotal: -1, MinDelay: minDelay})
		for _, v := range vs {
			t.Errorf("%s: %s", name, v)
		}
	}
}
