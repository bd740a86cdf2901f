package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"wsnva/internal/deploy"
	"wsnva/internal/geom"
	"wsnva/internal/parallel"
	"wsnva/internal/stats"
)

// E26DeployGeneration measures the deployment pipeline the sharded kernel
// feeds on: flat-CSR neighbor construction (build rows — placement + CSR,
// no validation, sequential versus parallel) and full qualification via
// Generate (gen rows — placement + CSR + the union-find/bitset predicate
// suite), at constant per-cell density up to a million nodes. The build
// rows' match column deep-compares the parallel result against the
// sequential one — positions, offsets, and the flat neighbor array must
// be byte-identical, so the speedup is never bought with divergence.
//
// Like E21/E22 the wall and malloc columns are measurements of this
// process, so the table is excluded from the golden-table tests, and rows
// run sequentially off the options pool. The build-par rows use a fixed
// 4-worker pool regardless of the host: on a single-core container they
// record the fan-out overhead (the E21 precedent), on ≥4 cores the
// speedup. Generation rows stop at the quarter-million tier — generation
// is build + a validation pass that the build rows already bound, and the
// million-node build rows are the numbers the ROADMAP item asked for.
func E26DeployGeneration(o Options) *stats.Table {
	tab := stats.NewTable("E26: deployment generation at scale — parallel CSR construction and allocation-free validation (constant density ≈16 nodes/cell)",
		"nodes", "side", "mode", "wall ms", "mallocs", "speedup", "match")

	type tier struct{ n, side int }
	buildTiers := []tier{{65536, 64}, {262144, 128}, {1048576, 256}}
	genTiers := []tier{{65536, 64}, {262144, 128}}
	if o.Quick {
		buildTiers = []tier{{4096, 16}, {16384, 32}}
		genTiers = []tier{{4096, 16}}
	}
	pool := parallel.New(4)

	measure := func(fn func()) (ms float64, mallocs int64) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		fn()
		wall := time.Since(t0)
		runtime.ReadMemStats(&after)
		return float64(wall.Nanoseconds()) / 1e6, int64(after.Mallocs - before.Mallocs)
	}

	for _, tr := range buildTiers {
		g := geom.NewSquareGrid(tr.side, float64(tr.side)*10)
		txRange := g.CellSide() * 1.2
		seed := parallel.TaskSeed("E26-build", tr.side, 0)
		var seq, par *deploy.Network
		seqMS, seqAllocs := measure(func() {
			seq = deploy.NewWithPool(tr.n, g.Terrain, txRange, deploy.UniformRandom{},
				rand.New(rand.NewSource(seed)), nil)
		})
		tab.AddRow(tr.n, tr.side, "build-seq", seqMS, seqAllocs, stats.Ratio(seqMS, seqMS), true)
		parMS, parAllocs := measure(func() {
			par = deploy.NewWithPool(tr.n, g.Terrain, txRange, deploy.UniformRandom{},
				rand.New(rand.NewSource(seed)), pool)
		})
		tab.AddRow(tr.n, tr.side, "build-par", parMS, parAllocs, stats.Ratio(seqMS, parMS), sameDeployment(seq, par))
		seq, par = nil, nil
	}

	for _, tr := range genTiers {
		g := geom.NewSquareGrid(tr.side, float64(tr.side)*10)
		rng := rand.New(rand.NewSource(parallel.TaskSeed("E26-gen", tr.side, 0)))
		ms, allocs := measure(func() {
			if _, _, err := deploy.Generate(tr.n, g, g.CellSide()*1.2, deploy.UniformRandom{}, rng, 4); err != nil {
				panic(fmt.Sprintf("experiments: E26 gen n=%d: %v", tr.n, err))
			}
		})
		tab.AddRow(tr.n, tr.side, "gen", ms, allocs, "-", "-")
	}
	return tab
}

// sameDeployment deep-compares two networks: node table, position views,
// CSR offsets, and the flat neighbor array.
func sameDeployment(a, b *deploy.Network) bool {
	if a.N() != b.N() || a.Range != b.Range || a.Terrain != b.Terrain {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	aOff, aAdj := a.CSRView()
	bOff, bAdj := b.CSRView()
	if len(aOff) != len(bOff) || len(aAdj) != len(bAdj) {
		return false
	}
	for i := range aOff {
		if aOff[i] != bOff[i] {
			return false
		}
	}
	for i := range aAdj {
		if aAdj[i] != bAdj[i] {
			return false
		}
	}
	return true
}
