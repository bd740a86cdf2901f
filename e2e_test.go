package wsnva_test

// End-to-end integration tests: the cross-engine equivalence matrix, the
// full physical stack (deploy → emulate → bind → label), and the
// wire-codec-in-the-loop run. These exercise the public seams between
// subsystems the way cmd/wsnsim composes them.

import (
	"math/rand"
	"testing"

	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/emul"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/lockstep"
	"wsnva/internal/regions"
	"wsnva/internal/runtime"
	"wsnva/internal/sim"
	"wsnva/internal/synth"
	"wsnva/internal/varch"
	"wsnva/internal/wire"
)

// TestThreeEngineEquivalence runs the same workloads through the DES
// machine, the DES machine under the step profile (lockstep), and the
// goroutine runtime, and requires byte-identical final summaries and
// identical total energy everywhere.
func TestThreeEngineEquivalence(t *testing.T) {
	for _, side := range []int{4, 8, 16} {
		for seed := int64(1); seed <= 3; seed++ {
			g := geom.NewSquareGrid(side, float64(side))
			f := field.RandomBlobs(3, g.Terrain, float64(side)/8, float64(side)/4, rand.New(rand.NewSource(seed)))
			m := field.Threshold(f, g, 0.5, 0)
			h := varch.MustHierarchy(g)

			desLedger := cost.NewLedger(cost.NewUniform(), g.N())
			desRes, err := synth.RunOnMachine(varch.NewMachine(h, sim.New(), desLedger), m)
			if err != nil {
				t.Fatalf("side %d seed %d DES: %v", side, seed, err)
			}

			lockLedger := cost.NewLedger(cost.NewUniform(), g.N())
			lockRes, err := lockstep.New(h, lockLedger).Run(m)
			if err != nil {
				t.Fatalf("side %d seed %d lockstep: %v", side, seed, err)
			}

			rtLedger := cost.NewLedger(cost.NewUniform(), g.N())
			rtRes, err := runtime.New(h).Run(m, rtLedger, runtime.Config{Seed: seed})
			if err != nil {
				t.Fatalf("side %d seed %d runtime: %v", side, seed, err)
			}

			if !lockRes.Final.Equal(desRes.Final) || !rtRes.Final.Equal(desRes.Final) {
				t.Errorf("side %d seed %d: engines disagree on the final summary", side, seed)
			}
			if lockLedger.Metrics().Total != desLedger.Metrics().Total ||
				rtLedger.Metrics().Total != desLedger.Metrics().Total {
				t.Errorf("side %d seed %d: energies %d / %d / %d diverge",
					side, seed, desLedger.Metrics().Total, lockLedger.Metrics().Total, rtLedger.Metrics().Total)
			}
			truth := regions.Label(m)
			if desRes.Final.Count() != truth.Count {
				t.Errorf("side %d seed %d: count %d vs truth %d", side, seed, desRes.Final.Count(), truth.Count)
			}
		}
	}
}

// TestWireTransportInTheLoop forces every protocol message through the
// binary codec; the result must be identical to the in-memory run.
func TestWireTransportInTheLoop(t *testing.T) {
	g := geom.NewSquareGrid(8, 8)
	m := field.Threshold(field.RandomBlobs(4, g.Terrain, 1, 2, rand.New(rand.NewSource(44))), g, 0.5, 0)
	h := varch.MustHierarchy(g)

	ref, err := synth.RunOnMachine(varch.NewMachine(h, sim.New(), cost.NewLedger(cost.NewUniform(), g.N())), m)
	if err != nil {
		t.Fatal(err)
	}
	encoded := 0
	transport := func(gm synth.GraphMsg) (synth.GraphMsg, error) {
		buf := wire.EncodeGraphMsg(gm.Sender, gm.Level, gm.Sub)
		sender, level, sub, err := wire.DecodeGraphMsg(g, buf)
		if err != nil {
			return synth.GraphMsg{}, err
		}
		// The chargeable size the program used must match the codec's view.
		if sub.Size() != gm.Sub.Size() {
			t.Errorf("decoded size %d != original %d", sub.Size(), gm.Sub.Size())
		}
		encoded++
		return synth.GraphMsg{Sender: sender, Level: level, Sub: sub}, nil
	}
	got, err := synth.RunOnMachineWithTransport(
		varch.NewMachine(h, sim.New(), cost.NewLedger(cost.NewUniform(), g.N())), m, transport)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Final.Equal(ref.Final) {
		t.Error("wire transport changed the result")
	}
	if encoded == 0 {
		t.Error("transport was never exercised")
	}
}

// TestFullPhysicalStack drives the complete pipeline the way cmd/wsnsim
// does, across several seeds: generate a valid deployment, emulate the
// grid, elect leaders, run the application, and check the answer.
func TestFullPhysicalStack(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		grid := geom.NewSquareGrid(4, 40)
		rng := rand.New(rand.NewSource(seed))
		nw, _, err := deploy.Generate(160, grid, grid.CellSide()*1.25, deploy.UniformRandom{}, rng, 100)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		stack := emul.NewStack(nw, grid, emul.Config{})
		proto, em := stack.Emulate()
		if !em.Complete {
			t.Fatalf("seed %d: emulation incomplete", seed)
		}
		bnd, _, err := stack.Bind()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(bnd.Leaders) != grid.N() {
			t.Fatalf("seed %d: %d leaders", seed, len(bnd.Leaders))
		}
		// Message routing over the emulated topology works between every
		// pair of opposite corners.
		corner := bnd.Leaders[geom.Coord{Col: 0, Row: 0}]
		if _, err := proto.RouteCells(corner, geom.Coord{Col: 3, Row: 3}, 4); err != nil {
			t.Fatalf("seed %d: routing failed: %v", seed, err)
		}
		// Application round on the virtual architecture.
		m := field.Threshold(field.RandomBlobs(2, grid.Terrain, 6, 10, rand.New(rand.NewSource(seed+2))), grid, 0.5, 0)
		h := varch.MustHierarchy(grid)
		res, err := synth.RunOnMachine(varch.NewMachine(h, sim.New(), cost.NewLedger(cost.NewUniform(), grid.N())), m)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Final.Count() != regions.Label(m).Count {
			t.Errorf("seed %d: wrong region count", seed)
		}
	}
}

// TestStorePipelineAfterRounds exercises gathering plus querying across
// epochs of a drifting field, the examples/contaminant composition.
func TestStorePipelineAfterRounds(t *testing.T) {
	g := geom.NewSquareGrid(8, 80)
	h := varch.MustHierarchy(g)
	plume := field.Blobs{Items: []field.Blob{
		{Center: geom.Point{X: 20, Y: 40}, Sigma: 12, Peak: 1, Drift: geom.Point{X: 0.05}},
	}}
	for epoch := 0; epoch < 4; epoch++ {
		m := field.Threshold(plume, g, 0.5, int64(epoch*200))
		res, err := synth.RunOnMachine(varch.NewMachine(h, sim.New(), cost.NewLedger(cost.NewUniform(), g.N())), m)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		truth := regions.Label(m)
		if res.Final.Count() != truth.Count {
			t.Errorf("epoch %d: count %d vs %d", epoch, res.Final.Count(), truth.Count)
		}
	}
}
