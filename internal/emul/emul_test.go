package emul

import (
	"math/rand"
	"testing"

	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/regions"
	"wsnva/internal/sim"
	"wsnva/internal/synth"
	"wsnva/internal/varch"
)

// deployment generates a valid deployment of perCell nodes per cell on
// a side×side grid at the paper's range of 1.25 cell sides.
func deployment(t *testing.T, side, perCell int, seed int64) (*deploy.Network, *geom.Grid) {
	t.Helper()
	g := geom.NewSquareGrid(side, float64(side)*10)
	rng := rand.New(rand.NewSource(seed))
	nw, _, err := deploy.Generate(side*side*perCell, g, g.CellSide()*1.25, deploy.UniformRandom{}, rng, 100)
	if err != nil {
		t.Fatal(err)
	}
	return nw, g
}

// stack assembles the full physical pipeline: deployment, emulation,
// binding, physical machine.
func stack(t *testing.T, side, perCell int, seed int64) (*Machine, *varch.Hierarchy, *cost.Ledger, *deploy.Network) {
	t.Helper()
	nw, g := deployment(t, side, perCell, seed)
	s := NewStack(nw, g, Config{})
	if _, m := s.Emulate(); !m.Complete {
		t.Fatal("emulation incomplete")
	}
	if _, _, err := s.Bind(); err != nil {
		t.Fatal(err)
	}
	m, err := s.Machine()
	if err != nil {
		t.Fatal(err)
	}
	return m, m.hier, s.Ledger(), nw
}

func TestPhysicalLabelingMatchesVirtual(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		m, h, _, _ := stack(t, 4, 8, seed)
		g := h.Grid
		fmap := field.Threshold(field.RandomBlobs(2, g.Terrain, 6, 10, rand.New(rand.NewSource(seed+7))), g, 0.5, 0)

		physRes, err := m.RunLabeling(fmap)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		virtVM := varch.NewMachine(h, sim.New(), cost.NewLedger(cost.NewUniform(), g.N()))
		virtRes, err := synth.RunOnMachine(virtVM, fmap)
		if err != nil {
			t.Fatal(err)
		}
		if !physRes.Final.Equal(virtRes.Final) {
			t.Errorf("seed %d: physical and virtual runs disagree on the summary", seed)
		}
		truth := regions.Label(fmap)
		if physRes.Final.Count() != truth.Count {
			t.Errorf("seed %d: physical count %d, truth %d", seed, physRes.Final.Count(), truth.Count)
		}
	}
}

func TestPhysicalCostsExceedVirtualModestly(t *testing.T) {
	// The emulated run pays the per-cell detours and intra-cell legs, so
	// its application energy exceeds the virtual prediction — but within a
	// small factor (E8's per-message inflation, compounded whole-app).
	m, h, physLedger, _ := stack(t, 4, 8, 5)
	g := h.Grid
	fmap := field.Threshold(field.RandomBlobs(2, g.Terrain, 6, 10, rand.New(rand.NewSource(12))), g, 0.5, 0)

	before := physLedger.Metrics().Total
	physRes, err := m.RunLabeling(fmap)
	if err != nil {
		t.Fatal(err)
	}
	physEnergy := int64(physLedger.Metrics().Total - before)

	virtLedger := cost.NewLedger(cost.NewUniform(), g.N())
	virtVM := varch.NewMachine(h, sim.New(), virtLedger)
	if _, err := synth.RunOnMachine(virtVM, fmap); err != nil {
		t.Fatal(err)
	}
	virtEnergy := int64(virtLedger.Metrics().Total)

	if physEnergy < virtEnergy {
		t.Errorf("physical energy %d below the virtual model %d — impossible", physEnergy, virtEnergy)
	}
	if float64(physEnergy) > 3*float64(virtEnergy) {
		t.Errorf("physical energy %d more than 3x the virtual %d — correspondence broken", physEnergy, virtEnergy)
	}
	if physRes.PhysHops == 0 {
		t.Error("no physical hops recorded")
	}
	t.Logf("whole-app correspondence: virtual %d, physical %d (%.2fx)",
		virtEnergy, physEnergy, float64(physEnergy)/float64(virtEnergy))
}

func TestPhysicalSendDeliversAtLeaders(t *testing.T) {
	m, h, _, nw := stack(t, 4, 6, 9)
	from := geom.Coord{Col: 3, Row: 3}
	to := geom.Coord{Col: 0, Row: 0}
	delivered := false
	m.SetReceiver(func(at int, msg varch.Message) {
		if at != h.Grid.Index(to) {
			t.Errorf("delivered at node %d, want %d", at, h.Grid.Index(to))
		}
		delivered = true
		if msg.From != from || msg.Size != 5 || msg.Payload.(string) != "pkt" {
			t.Errorf("bad message %+v", msg)
		}
	})
	m.Send(from, to, 5, "pkt")
	m.Kernel().Run()
	if !delivered {
		t.Fatal("message never reached the destination leader")
	}
	_ = nw
	msgs, hops := m.Stats()
	if msgs != 1 || hops < int64(from.Manhattan(to)) {
		t.Errorf("stats msgs=%d hops=%d; hops must be at least the Manhattan distance", msgs, hops)
	}
	// Self-send is free and immediate.
	selfHeard := false
	m.SetReceiver(func(at int, _ varch.Message) { selfHeard = at == h.Grid.Index(from) })
	m.Send(from, from, 99, nil)
	m.Kernel().Run()
	if !selfHeard {
		t.Error("self-send not delivered")
	}
}

func TestSendToLeaderPhysical(t *testing.T) {
	m, h, _, _ := stack(t, 4, 6, 11)
	heard := false
	leader := h.LeaderAt(geom.Coord{Col: 3, Row: 1}, 1)
	m.SetReceiver(func(at int, _ varch.Message) { heard = at == h.Grid.Index(leader) })
	m.SendToLeader(geom.Coord{Col: 3, Row: 1}, 1, 2, nil)
	m.Kernel().Run()
	if !heard {
		t.Error("group send never reached the level-1 leader")
	}
}

func TestPhysicalAlarmProgram(t *testing.T) {
	// The generic physical driver runs the event-driven alarm end to end
	// over the real network; count and quorum behaviour must match the
	// virtual machine.
	m, h, _, _ := stack(t, 4, 8, 13)
	g := h.Grid
	hot := field.Parse(g,
		"....",
		".##.",
		".#..",
		"....",
	)
	const quorum = 2
	res, insts, err := RunProgram(m, synth.AlarmProgram(h, hot, quorum))
	if err != nil {
		t.Fatal(err)
	}
	if res.Exfiltrated == nil {
		t.Fatal("3 hot cells must satisfy quorum 2 on the physical network")
	}
	totals := insts[g.Index(h.Root())].State.Total
	if totals[h.Levels] != 3 {
		t.Errorf("physical root counted %d alarms, want 3", totals[h.Levels])
	}
	if res.PhysHops == 0 {
		t.Error("alarm deltas must traverse physical hops")
	}
}
