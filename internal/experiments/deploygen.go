package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"wsnva/internal/deploy"
	"wsnva/internal/geom"
	"wsnva/internal/parallel"
	"wsnva/internal/stats"
)

// E26DeployGeneration runs the deployment pipeline the sharded kernel
// feeds on at constant per-cell density up to a million nodes. A build
// row places the nodes and builds the flat-CSR neighbor rows twice, with
// no pool and on a fixed 4-worker pool, and its match column
// deep-compares the two: positions, offsets and the flat neighbor array
// must be identical. A gen row qualifies a deployment with Generate —
// placement, CSR and the union-find/bitset predicate suite — and prints
// the attempts it took. Generation stops at the quarter-million tier: it
// is a build plus a validation pass that the build rows already bound.
// Tiers run one at a time so that only one tier's networks are alive.
// BenchmarkBuildCSR and BenchmarkValidate in internal/deploy time both
// layers.
func E26DeployGeneration(o Options) *stats.Table {
	tab := stats.NewTable("E26: deployment generation at scale — parallel CSR construction and allocation-free validation (constant density ≈16 nodes/cell)",
		"nodes", "side", "mode", "attempts", "match")

	type tier struct{ n, side int }
	buildTiers := []tier{{65536, 64}, {262144, 128}, {1048576, 256}}
	genTiers := []tier{{65536, 64}, {262144, 128}}
	if o.Quick {
		buildTiers = []tier{{4096, 16}, {16384, 32}}
		genTiers = []tier{{4096, 16}}
	}
	pool := parallel.New(4)

	for _, tr := range buildTiers {
		g := geom.NewSquareGrid(tr.side, float64(tr.side)*10)
		seed := parallel.TaskSeed("E26-build", tr.side, 0)
		build := func(p *parallel.Pool) *deploy.Network {
			return deploy.NewWithPool(tr.n, g.Terrain, g.CellSide()*1.2, deploy.UniformRandom{},
				rand.New(rand.NewSource(seed)), p)
		}
		tab.AddRow(tr.n, tr.side, "build", "-", sameDeployment(build(nil), build(pool)))
	}

	for _, tr := range genTiers {
		g := geom.NewSquareGrid(tr.side, float64(tr.side)*10)
		rng := rand.New(rand.NewSource(parallel.TaskSeed("E26-gen", tr.side, 0)))
		_, attempts, err := deploy.Generate(tr.n, g, g.CellSide()*1.2, deploy.UniformRandom{}, rng, 4)
		if err != nil {
			panic(fmt.Sprintf("experiments: E26 gen n=%d: %v", tr.n, err))
		}
		tab.AddRow(tr.n, tr.side, "gen", attempts, "-")
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
	return slices.Equal(aOff, bOff) && slices.Equal(aAdj, bAdj)
}
