// Clustered deployment with a tree virtual topology: the scenario for
// which the paper says "other virtual topologies such as a tree could be
// more appropriate" (Section 3.2). Nodes are dropped in tight clusters —
// say, from a few airdrops — so most grid cells are empty and the grid
// virtual architecture cannot be emulated. The example builds a BFS
// spanning tree from a sink instead, then runs the tree's collective
// services: a census, a network-wide maximum reading, and a configuration
// dissemination, with the energy bill for each.
//
//	go run ./examples/clustered
package main

import (
	"fmt"
	"log"
	"math/rand"

	"wsnva/internal/deploy"
	"wsnva/internal/emul"
	"wsnva/internal/field"
	"wsnva/internal/geom"
)

func main() {
	terrain := geom.Rect{MinX: 0, MinY: 0, MaxX: 120, MaxY: 120}
	grid := geom.NewGrid(8, 8, terrain)

	// Find a connected clustered deployment (a few tries may be needed:
	// clusters can land out of radio reach of each other).
	var nw *deploy.Network
	var seed int64
	for seed = 1; seed < 100; seed++ {
		cand := deploy.New(180, terrain, 22, deploy.Clustered{Clusters: 4, Spread: 0.07}, rand.New(rand.NewSource(seed)))
		if cand.Connected() {
			nw = cand
			break
		}
	}
	if nw == nil {
		log.Fatal("no connected clustered deployment found")
	}
	fmt.Printf("deployment: %d nodes in 4 clusters (seed %d), avg degree %.1f\n", nw.N(), seed, nw.AvgDegree())

	occupied := 0
	for _, m := range nw.CellMembers(grid) {
		if len(m) > 0 {
			occupied++
		}
	}
	fmt.Printf("grid viability: %d of %d cells occupied -> grid emulation %s\n",
		occupied, grid.N(), map[bool]string{true: "possible", false: "IMPOSSIBLE"}[nw.OccupancyOK(grid)])

	// Tree virtual topology instead.
	stack := emul.NewStack(nw, grid, emul.Config{})
	ledger := stack.Ledger()
	tree := stack.Tree()
	m := tree.Build(0)
	if err := tree.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nspanning tree from node 0: reached %d/%d nodes, depth %d, %d broadcasts + %d adoptions\n",
		m.Reached, nw.N(), m.MaxDepth, m.Broadcasts, m.Adoptions)
	buildEnergy := ledger.Metrics().Total

	// Census: how many nodes are alive?
	before := ledger.Metrics().Total
	count, msgs := tree.Aggregate(func(int) int64 { return 1 }, func(a, b int64) int64 { return a + b })
	fmt.Printf("\ncensus: %d nodes (%d messages, %d energy units)\n", count, msgs, ledger.Metrics().Total-before)

	// Max reading: the hottest sensor in the field.
	hot := field.Blobs{Base: 15, Items: []field.Blob{{Center: geom.Point{X: 90, Y: 30}, Sigma: 20, Peak: 20}}}
	reading := func(id int) int64 { return int64(hot.Sample(nw.Nodes[id].Pos, 0) * 10) }
	before = ledger.Metrics().Total
	maxR, _ := tree.Aggregate(reading, func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	})
	fmt.Printf("hottest reading: %.1f degrees (%d energy units)\n",
		float64(maxR)/10, ledger.Metrics().Total-before)

	// Dissemination: push a 4-unit configuration update to every node.
	before = ledger.Metrics().Total
	forwards := tree.Disseminate(4)
	fmt.Printf("config dissemination: %d forwards (%d energy units)\n", forwards, ledger.Metrics().Total-before)

	fmt.Printf("\ntotal so far: %d units (tree build %d); per node %.1f\n",
		ledger.Metrics().Total, buildEnergy, float64(ledger.Metrics().Total)/float64(nw.N()))
}
