package emul

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"wsnva/internal/binding"
	"wsnva/internal/cost"
	"wsnva/internal/radio"
	"wsnva/internal/sim"
	"wsnva/internal/varch"
	"wsnva/internal/vtopo"
)

// TestStackMatchesHandAssembly runs every phase of a Stack beside the
// hand assembly it replaces — NewMedium, then vtopo, then the election,
// then New — on the same deployment and loss stream, and requires the
// two to agree after each phase: its result, the ledger total and the
// kernel's fired events.
func TestStackMatchesHandAssembly(t *testing.T) {
	for _, loss := range []float64{0, 0.2} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, rotate := range []bool{false, true} {
				t.Run(fmt.Sprintf("loss=%v/seed=%d/rotate=%v", loss, seed, rotate), func(t *testing.T) {
					compareWithHandAssembly(t, loss, seed, rotate)
				})
			}
		}
	}
}

func compareWithHandAssembly(t *testing.T, loss float64, seed int64, rotate bool) {
	nw, g := deployment(t, 4, 8, seed)
	lossSeed := seed + 50
	var rng *rand.Rand
	if loss != 0 {
		rng = rand.New(rand.NewSource(lossSeed))
	}
	med := radio.NewMedium(nw, sim.New(), cost.NewLedger(cost.NewUniform(), nw.N()), rng, radio.Config{Loss: loss})
	s := NewStack(nw, g, Config{Loss: loss, Seed: lossSeed})

	same := func(phase string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: stack %+v, hand assembly %+v", phase, got, want)
		}
	}
	// after checks the books once a phase has run.
	after := func(phase string) {
		t.Helper()
		same(phase+": ledger total", s.Ledger().Total(), med.Ledger().Total())
		same(phase+": kernel events", s.Kernel().Fired(), med.Kernel().Fired())
	}

	proto := vtopo.New(med, g)
	wantEm := proto.Run()
	_, gotEm := s.Emulate()
	same("emulation metrics", gotEm, wantEm)
	after("emulation")

	var bnd *binding.Binding
	var rot, refRot *binding.Rotator
	if rotate {
		var err, refErr error
		refRot, refErr = binding.NewRotator(med, g)
		rot, err = s.Rotator()
		same("initial election error", fmt.Sprint(err), fmt.Sprint(refErr))
		if refErr != nil {
			return
		}
		same("initial binding", rot.Current(), refRot.Current())
		bnd = refRot.Current()
	} else {
		wantBnd, wantRes, wantErr := binding.Bind(med, g, binding.MinDistance{Network: nw, Grid: g})
		gotBnd, gotRes, gotErr := s.Bind()
		same("election result", gotRes, wantRes)
		same("election error", fmt.Sprint(gotErr), fmt.Sprint(wantErr))
		if wantErr != nil {
			return
		}
		same("binding", gotBnd, wantBnd)
		bnd = wantBnd
	}
	after("binding")

	want, wantErr := New(varch.MustHierarchy(g), proto, bnd, med)
	got, gotErr := s.Machine()
	same("machine error", fmt.Sprint(gotErr), fmt.Sprint(wantErr))
	if wantErr != nil {
		return
	}
	after("machine")

	fmap := churnMap(g, seed)
	wantRes, wantErr := want.RunLabeling(fmap)
	gotRes, gotErr := got.RunLabeling(fmap)
	same("labeling error", fmt.Sprint(gotErr), fmt.Sprint(wantErr))
	same("labeling result", gotRes, wantRes)
	after("labeling")

	if rotate {
		same("rotation", rot.RotateResidual(got.med.Alive), refRot.RotateResidual(want.med.Alive))
		after("rotation")
	}
}

// TestStackMachineNeedsItsPhases pins the phase order: a machine needs an
// emulated topology and a verified binding.
func TestStackMachineNeedsItsPhases(t *testing.T) {
	nw, g := deployment(t, 4, 8, 1)
	s := NewStack(nw, g, Config{})
	if _, err := s.Machine(); err == nil {
		t.Error("Machine before Emulate succeeded")
	}
	s.Emulate()
	if _, err := s.Machine(); err == nil {
		t.Error("Machine before Bind succeeded")
	}
	if _, _, err := s.Bind(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Machine(); err != nil {
		t.Error(err)
	}
}
