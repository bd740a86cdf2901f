// Package wsnva_test is the benchmark harness: one testing.B target per
// experiment table in DESIGN.md's index (BenchmarkE1…BenchmarkE10, plus the
// A-series ablations), and micro-benchmarks for the hot substrate paths.
// Run `go test -bench=. -benchmem` here, or `go run ./cmd/benchtab` for the
// full printed tables.
package wsnva_test

import (
	"fmt"
	"math/rand"
	"testing"

	"wsnva/internal/binding"
	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/emul"
	"wsnva/internal/experiments"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/lockstep"
	"wsnva/internal/radio"
	"wsnva/internal/regions"
	"wsnva/internal/runtime"
	"wsnva/internal/sim"
	"wsnva/internal/stats"
	"wsnva/internal/synth"
	"wsnva/internal/varch"
	"wsnva/internal/vtopo"
	"wsnva/internal/vtree"
	"wsnva/internal/wire"
)

var quick = experiments.Options{Quick: true}

// benchTable runs an experiment-table generator once per iteration and
// keeps the result alive.
func benchTable(b *testing.B, f func(experiments.Options) *stats.Table) {
	b.Helper()
	b.ReportAllocs()
	var sink *stats.Table
	for i := 0; i < b.N; i++ {
		sink = f(quick)
	}
	if sink.NumRows() == 0 {
		b.Fatal("empty table")
	}
}

func BenchmarkE1Mapping(b *testing.B)         { benchTable(b, experiments.E1Mapping) }
func BenchmarkE2Steps(b *testing.B)           { benchTable(b, experiments.E2Steps) }
func BenchmarkE3DCvsCentral(b *testing.B)     { benchTable(b, experiments.E3DCvsCentral) }
func BenchmarkE4Balance(b *testing.B)         { benchTable(b, experiments.E4Balance) }
func BenchmarkE5Emulation(b *testing.B)       { benchTable(b, experiments.E5Emulation) }
func BenchmarkE6Election(b *testing.B)        { benchTable(b, experiments.E6Election) }
func BenchmarkE7Loss(b *testing.B)            { benchTable(b, experiments.E7Loss) }
func BenchmarkE8Correspondence(b *testing.B)  { benchTable(b, experiments.E8Correspondence) }
func BenchmarkE9Collectives(b *testing.B)     { benchTable(b, experiments.E9Collectives) }
func BenchmarkE10Churn(b *testing.B)          { benchTable(b, experiments.E10Churn) }
func BenchmarkE11SyncSteps(b *testing.B)      { benchTable(b, experiments.E11SyncSteps) }
func BenchmarkE12TreeTopology(b *testing.B)   { benchTable(b, experiments.E12TreeTopology) }
func BenchmarkE13LossyEmulation(b *testing.B) { benchTable(b, experiments.E13LossyEmulation) }
func BenchmarkE14AlarmApp(b *testing.B)       { benchTable(b, experiments.E14AlarmApp) }
func BenchmarkE15Lifetime(b *testing.B)       { benchTable(b, experiments.E15Lifetime) }
func BenchmarkE16WholeApp(b *testing.B)       { benchTable(b, experiments.E16WholeApp) }
func BenchmarkE17FailureSweep(b *testing.B)   { benchTable(b, experiments.E17FailureSweep) }
func BenchmarkE18ReliableDelivery(b *testing.B) {
	benchTable(b, experiments.E18ReliableDelivery)
}
func BenchmarkE19NetworkLifetime(b *testing.B) {
	benchTable(b, experiments.E19NetworkLifetime)
}
func BenchmarkE20DepletionARQ(b *testing.B)  { benchTable(b, experiments.E20DepletionARQ) }
func BenchmarkE21ShardScaling(b *testing.B)  { benchTable(b, experiments.E21ShardScaling) }
func BenchmarkE22HazardScaling(b *testing.B) { benchTable(b, experiments.E22HazardScaling) }
func BenchmarkE23ChurnRepair(b *testing.B)   { benchTable(b, experiments.E23ChurnRepair) }
func BenchmarkE24ChurnShardScaling(b *testing.B) {
	benchTable(b, experiments.E24ChurnShardScaling)
}
func BenchmarkE26DeployGeneration(b *testing.B) {
	benchTable(b, experiments.E26DeployGeneration)
}
func BenchmarkA1Mappers(b *testing.B)    { benchTable(b, experiments.A1MappingAblation) }
func BenchmarkA2Workloads(b *testing.B)  { benchTable(b, experiments.A2FieldShapes) }
func BenchmarkA3CostModels(b *testing.B) { benchTable(b, experiments.A3CostSensitivity) }

// BenchmarkLabelRoundLockstep measures a labeling round in the synchronous
// regime: the DES machine under the step cost profile.
func BenchmarkLabelRoundLockstep(b *testing.B) {
	for _, side := range []int{8, 16, 32} {
		side := side
		b.Run(sideName(side), func(b *testing.B) {
			g := geom.NewSquareGrid(side, float64(side))
			f := field.RandomBlobs(4, g.Terrain, float64(side)/8, float64(side)/5, rand.New(rand.NewSource(1)))
			m := field.Threshold(f, g, 0.5, 0)
			h := varch.MustHierarchy(g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := cost.NewLedger(cost.NewUniform(), g.N())
				if _, err := lockstep.New(h, l).Run(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireCodec measures summary encode+decode round trips.
func BenchmarkWireCodec(b *testing.B) {
	g := geom.NewSquareGrid(32, 32)
	bits := make([]bool, g.N())
	rng := rand.New(rand.NewSource(5))
	for i := range bits {
		bits[i] = rng.Intn(3) == 0
	}
	m := field.FromBits(g, bits)
	s := regions.LeafBlock(m, 0, 0, 16, 32)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = wire.AppendSummary(buf[:0], s)
		if _, err := wire.DecodeSummary(g, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeBuild measures spanning-tree construction on a clustered
// deployment.
func BenchmarkTreeBuild(b *testing.B) {
	terrain := geom.Rect{MaxX: 100, MaxY: 100}
	var nw *deploy.Network
	for seed := int64(0); seed < 50; seed++ {
		cand := deploy.New(200, terrain, 18, deploy.Clustered{Clusters: 4, Spread: 0.1}, rand.New(rand.NewSource(seed)))
		if cand.Connected() {
			nw = cand
			break
		}
	}
	if nw == nil {
		b.Fatal("no connected deployment")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := cost.NewLedger(cost.NewUniform(), nw.N())
		med := radio.NewMedium(nw, sim.New(), l, rand.New(rand.NewSource(7)), radio.Config{})
		p := vtree.New(med)
		if m := p.Build(0); m.Reached != nw.N() {
			b.Fatal("tree did not span")
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkLabelRoundDES measures one full synthesized labeling round on
// the discrete-event machine per grid size.
func BenchmarkLabelRoundDES(b *testing.B) {
	for _, side := range []int{8, 16, 32} {
		side := side
		b.Run(sideName(side), func(b *testing.B) {
			g := geom.NewSquareGrid(side, float64(side))
			f := field.RandomBlobs(4, g.Terrain, float64(side)/8, float64(side)/5, rand.New(rand.NewSource(1)))
			m := field.Threshold(f, g, 0.5, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := varch.MustHierarchy(g)
				l := cost.NewLedger(cost.NewUniform(), g.N())
				vm := varch.NewMachine(h, sim.New(), l)
				if _, err := synth.RunOnMachine(vm, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLabelRoundConcurrent measures the goroutine-per-node engine.
func BenchmarkLabelRoundConcurrent(b *testing.B) {
	for _, side := range []int{8, 16} {
		side := side
		b.Run(sideName(side), func(b *testing.B) {
			g := geom.NewSquareGrid(side, float64(side))
			f := field.RandomBlobs(4, g.Terrain, float64(side)/8, float64(side)/5, rand.New(rand.NewSource(1)))
			m := field.Threshold(f, g, 0.5, 0)
			h := varch.MustHierarchy(g)
			rt := runtime.New(h)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.Run(m, nil, runtime.Config{Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSummaryMerge measures the boundary-merge operation on two half
// summaries of a random map.
func BenchmarkSummaryMerge(b *testing.B) {
	g := geom.NewSquareGrid(32, 32)
	bits := make([]bool, g.N())
	rng := rand.New(rand.NewSource(2))
	for i := range bits {
		bits[i] = rng.Intn(3) == 0
	}
	m := field.FromBits(g, bits)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		left := regions.LeafBlock(m, 0, 0, 16, 32)
		right := regions.LeafBlock(m, 16, 0, 16, 32)
		left.Merge(right)
	}
}

// BenchmarkGroundTruthLabel measures the sequential union-find labeler.
func BenchmarkGroundTruthLabel(b *testing.B) {
	g := geom.NewSquareGrid(64, 64)
	bits := make([]bool, g.N())
	rng := rand.New(rand.NewSource(3))
	for i := range bits {
		bits[i] = rng.Intn(3) == 0
	}
	m := field.FromBits(g, bits)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if regions.Label(m).Count == 0 {
			b.Fatal("implausible")
		}
	}
}

// BenchmarkTopologyEmulation measures the Section 5 set-up layers: one
// full Section 5.1 round on a 4x4, 160-node deployment, then the vtopo
// round, the Section 5.2 election and emul.New on paper-stack's deployment
// (side 8, 640 nodes, range 1.2 cell sides). Each side-8 case reports the
// medium's deliveries and the kernel's fired events per op.
func BenchmarkTopologyEmulation(b *testing.B) {
	b.Run("4x4", func(b *testing.B) {
		g := geom.NewSquareGrid(4, 40)
		rng := rand.New(rand.NewSource(4))
		nw, _, err := deploy.Generate(160, g, 11, deploy.UniformRandom{}, rng, 100)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l := cost.NewLedger(cost.NewUniform(), nw.N())
			med := radio.NewMedium(nw, sim.New(), l, rand.New(rand.NewSource(5)), radio.Config{})
			if m := vtopo.New(med, g).Run(); !m.Complete {
				b.Fatal("incomplete")
			}
		}
	})

	g := geom.NewSquareGrid(8, 80)
	nw, _, err := deploy.Generate(640, g, g.CellSide()*1.2, deploy.UniformRandom{}, rand.New(rand.NewSource(8)), 100)
	if err != nil {
		b.Fatal(err)
	}
	newMedium := func() *radio.Medium {
		return radio.NewMedium(nw, sim.New(), cost.NewLedger(cost.NewUniform(), nw.N()),
			rand.New(rand.NewSource(9)), radio.Config{})
	}
	// layer times one set-up layer per iteration on a fresh medium; run
	// returns the medium it drove.
	layer := func(name string, run func() *radio.Medium) {
		b.Run("side8/"+name, func(b *testing.B) {
			b.ReportAllocs()
			var delivered, fired int64
			for i := 0; i < b.N; i++ {
				med := run()
				_, d, _ := med.Stats()
				delivered += d
				fired += med.Kernel().Fired()
			}
			b.ReportMetric(float64(delivered)/float64(b.N), "deliveries/op")
			b.ReportMetric(float64(fired)/float64(b.N), "events/op")
		})
	}
	layer("vtopo", func() *radio.Medium {
		med := newMedium()
		if m := vtopo.New(med, g).Run(); !m.Complete {
			b.Fatal("incomplete")
		}
		return med
	})
	layer("bind", func() *radio.Medium {
		med := newMedium()
		if _, _, err := binding.Bind(med, g, binding.MinDistance{Network: nw, Grid: g}); err != nil {
			b.Fatal(err)
		}
		return med
	})
	// emul.New runs no protocol, so every iteration builds a machine over
	// one medium that has already run vtopo and the election.
	med := newMedium()
	proto := vtopo.New(med, g)
	proto.Run()
	bnd, _, err := binding.Bind(med, g, binding.MinDistance{Network: nw, Grid: g})
	if err != nil {
		b.Fatal(err)
	}
	h := varch.MustHierarchy(g)
	_, delivered0, _ := med.Stats()
	fired0 := med.Kernel().Fired()
	b.Run("side8/emul_new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := emul.New(h, proto, bnd, med); err != nil {
				b.Fatal(err)
			}
		}
		_, d, _ := med.Stats()
		b.ReportMetric(float64(d-delivered0)/float64(b.N), "deliveries/op")
		b.ReportMetric(float64(med.Kernel().Fired()-fired0)/float64(b.N), "events/op")
	})
}

// BenchmarkDeploymentGeneration measures placement plus adjacency
// construction for a mid-sized deployment.
func BenchmarkDeploymentGeneration(b *testing.B) {
	g := geom.NewSquareGrid(8, 80)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		nw := deploy.New(640, g.Terrain, 11, deploy.UniformRandom{}, rng)
		if nw.N() != 640 {
			b.Fatal("bad deployment")
		}
	}
}

func sideName(side int) string {
	return fmt.Sprintf("%dx%d", side, side)
}
