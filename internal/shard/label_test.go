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
	"wsnva/internal/regions"
	"wsnva/internal/sim"
	"wsnva/internal/synth"
	"wsnva/internal/varch"
)

// TestLabelingMatchesSynthDES pins the shard-fabric labeling app to the
// synthesized guarded-command program running on the virtual
// architecture: under zero hazards both must exfiltrate value-equal
// root summaries, and the shard result must agree with the
// ground-truth sequential labeler.
func TestLabelingMatchesSynthDES(t *testing.T) {
	cases := []struct {
		side int
		rows []string
	}{
		{4, []string{"##..", "#...", "..##", "..##"}},
		{4, []string{"....", "....", "....", "...."}},
		{4, []string{"####", "####", "####", "####"}},
		{8, nil}, // random
	}
	rng := rand.New(rand.NewSource(99))
	for ci, tc := range cases {
		g := geom.NewSquareGrid(tc.side, float64(tc.side))
		var m *field.BinaryMap
		if tc.rows != nil {
			m = field.Parse(g, tc.rows...)
		} else {
			bits := make([]bool, g.N())
			for i := range bits {
				bits[i] = rng.Float64() < 0.5
			}
			m = field.FromBits(g, bits)
		}

		h := varch.MustHierarchy(g)
		vm := varch.NewMachine(h, sim.New(), cost.NewLedger(cost.NewUniform(), g.N()))
		want, err := synth.RunOnMachine(vm, m)
		if err != nil {
			t.Fatalf("case %d: synth: %v", ci, err)
		}

		for _, shards := range []int{1, 4} {
			got, err := RunLabeling(m, Config{Shards: shards, Workers: 2})
			if err != nil {
				t.Fatalf("case %d shards=%d: %v", ci, shards, err)
			}
			if got.Final == nil {
				t.Fatalf("case %d shards=%d: labeling stalled with no hazards", ci, shards)
			}
			if !got.Final.Complete() {
				t.Fatalf("case %d shards=%d: final summary covers %d of %d cells",
					ci, shards, got.Final.CoveredCells(), g.N())
			}
			if !got.Final.Equal(want.Final) {
				t.Fatalf("case %d shards=%d: shard summary != synth summary\nshard: %v\nsynth: %v",
					ci, shards, got.Final, want.Final)
			}
			if truth := regions.Label(m); got.Final.Count() != truth.Count {
				t.Fatalf("case %d shards=%d: %d regions, ground truth %d",
					ci, shards, got.Final.Count(), truth.Count)
			}
		}
	}
}

// TestLabelingShardInvarianceUnderHazards: an 8x8 labeling run with
// nonzero loss and a pinned mid-run death must produce results deep-equal
// to the oracle's, and byte-identical canonical traces, at 1, 2, 4 and 8
// shards.
func TestLabelingShardInvarianceUnderHazards(t *testing.T) {
	g := geom.NewSquareGrid(8, 8)
	rng := rand.New(rand.NewSource(5))
	bits := make([]bool, g.N())
	for i := range bits {
		bits[i] = rng.Float64() < 0.5
	}
	m := field.FromBits(g, bits)

	base := Config{
		Loss:    0.12,
		Seed:    424242,
		Crashes: fault.At(fault.Crash{Node: 27, At: 3}, fault.Crash{Node: 50, At: 9}),
		Trace:   true,
	}
	want, err := runLabelingOracle(m, base)
	if err != nil {
		t.Fatal(err)
	}
	if want.Deaths < 1 {
		t.Fatalf("expected at least one mid-run death, got %d", want.Deaths)
	}
	if want.Dropped == 0 {
		t.Fatal("expected lossy drops in the trace")
	}
	for _, shards := range diffShards {
		cfg := base
		cfg.Shards, cfg.Workers = shards, 2
		got, err := RunLabeling(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Trace, want.Trace) {
			t.Fatalf("shards=%d: canonical trace diverges from oracle", shards)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: labeling result diverges from oracle", shards)
		}
		if got.Checksum() != want.Checksum() {
			t.Fatalf("shards=%d: checksum diverges", shards)
		}
	}
}

// TestLabelingDepletionKillsRun arms a battery budget small enough that
// relays die mid-reduction: the run must stall deterministically (nil
// Final), and the engine at 1, 2, 4 and 8 shards must match the oracle.
func TestLabelingDepletionKillsRun(t *testing.T) {
	g := geom.NewSquareGrid(8, 8)
	m := field.FromBits(g, make([]bool, g.N()))
	base := Config{Capacity: 12, Deplete: true, Trace: true}
	want, err := runLabelingOracle(m, base)
	if err != nil {
		t.Fatal(err)
	}
	if want.Deaths == 0 {
		t.Fatal("expected depletions under a 12-unit budget")
	}
	for _, shards := range diffShards {
		cfg := base
		cfg.Shards, cfg.Workers = shards, 2
		got, err := RunLabeling(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: depleting labeling run diverges from oracle", shards)
		}
	}
}

// TestLabelingValidation rejects grids the quad-tree cannot run on and
// hazard knobs out of range.
func TestLabelingValidation(t *testing.T) {
	bad := field.FromBits(geom.NewGrid(3, 3, geom.Rect{MaxX: 3, MaxY: 3}), make([]bool, 9))
	if _, err := RunLabeling(bad, Config{}); err == nil {
		t.Error("3x3 grid accepted (not a power of two)")
	}
	g := geom.NewSquareGrid(4, 4)
	m := field.FromBits(g, make([]bool, g.N()))
	if _, err := RunLabeling(m, Config{Loss: 1.5}); err == nil {
		t.Error("loss 1.5 accepted")
	}
	if _, err := RunLabeling(m, Config{Deplete: true}); err == nil {
		t.Error("Deplete without Capacity accepted")
	}
}

// TestLabelDeploymentIsTheDiskGraph: the labeling grid built from its
// 4-adjacency is exactly the network FromPoints' neighbor search builds
// over the cell centers at range 1.1 cell sides.
func TestLabelDeploymentIsTheDiskGraph(t *testing.T) {
	for _, side := range []int{2, 4, 16, 64} {
		for _, scale := range []float64{1, 10} {
			g := geom.NewSquareGrid(side, float64(side)*scale)
			centers := make([]geom.Point, g.N())
			for i := range centers {
				centers[i] = g.CellCenter(g.CoordOf(i))
			}
			want := deploy.FromPoints(centers, g.Terrain, 1.1*g.CellSide())
			if got := labelDeployment(g); !reflect.DeepEqual(got, want) {
				t.Errorf("side %d terrain %v: adjacency-built grid differs from the disk graph", side, g.Terrain)
			}
		}
	}
}
