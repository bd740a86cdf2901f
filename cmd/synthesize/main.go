// Command synthesize walks the paper's design flow for the topographic-
// querying case study and prints every intermediate artifact: the quad-tree
// task graph (Figure 2), the quadrant-recursive mapping with both design
// constraints checked (Figure 3), the analytical cost estimate of one
// round, and the synthesized guarded-command node program (Figure 4).
//
// Usage:
//
//	synthesize [-side 4] [-all]
package main

import (
	"flag"
	"fmt"
	"log"

	"wsnva/internal/cost"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/mapping"
	"wsnva/internal/synth"
	"wsnva/internal/taskgraph"
	"wsnva/internal/varch"
)

func main() {
	side := flag.Int("side", 4, "virtual grid side (power of two)")
	all := flag.Bool("all", false, "also print the alarm and tracking programs")
	flag.Parse()
	if !geom.IsPow2(*side) {
		log.Fatalf("synthesize: -side must be a power of two, got %d", *side)
	}
	grid := geom.NewSquareGrid(*side, float64(*side))
	h := varch.MustHierarchy(grid)
	tree := taskgraph.QuadTree(h.Levels, 1)

	fmt.Printf("=== Task graph (Figure 2): quad-tree for the %dx%d grid ===\n", *side, *side)
	fmt.Printf("tasks: %d (%d sensing leaves, %d interior)\n",
		tree.N(), len(tree.Levels[0]), tree.N()-len(tree.Levels[0]))
	for level := tree.Height; level >= 0; level-- {
		fmt.Printf("  level %d: %d tasks\n", level, len(tree.Levels[level]))
	}

	a := mapping.PaperMapping(tree, grid)
	fmt.Printf("\n=== Role assignment (Figure 3): quadrant-recursive mapping ===\n")
	if err := a.CheckCoverage(); err != nil {
		log.Fatalf("coverage constraint violated: %v", err)
	}
	if err := a.CheckSpatialCorrelation(); err != nil {
		log.Fatalf("spatial-correlation constraint violated: %v", err)
	}
	fmt.Println("constraints: coverage OK, spatial correlation OK")
	fmt.Printf("root task -> cell %d; level-1 tasks -> cells", geom.MortonIndex(a.At[tree.Root()]))
	if tree.Height >= 1 {
		for _, id := range tree.Levels[1] {
			fmt.Printf(" %d", geom.MortonIndex(a.At[id]))
		}
	}
	fmt.Println()
	fmt.Println("\nMorton cell labels of the grid (NW origin):")
	for row := 0; row < grid.Rows; row++ {
		for col := 0; col < grid.Cols; col++ {
			fmt.Printf("%4d", geom.MortonIndex(geom.Coord{Col: col, Row: row}))
		}
		fmt.Println()
	}

	st := mapping.Evaluate(tree, a, cost.NewUniform())
	fmt.Printf("\n=== First-order performance estimate (uniform cost model) ===\n")
	fmt.Printf("one round: total energy %d units, critical latency %d units, %d messages\n",
		st.TotalEnergy, st.Latency, st.Messages)
	fmt.Printf("hottest node: %d units (balance %.2f)\n", st.MaxNodeEnergy, st.Balance)

	fmt.Printf("\n=== Synthesized node program (Figure 4) ===\n")
	// Listings never run the rules, so a blank field stands in for sensing.
	blank := field.FromBits(grid, make([]bool, grid.N()))
	fmt.Println(synth.LabelingProgram(h, blank).Listing())

	if *all {
		fmt.Printf("\n=== Synthesized alarm program (event-driven regime) ===\n")
		fmt.Println(synth.AlarmProgram(h, blank, 4).Listing())

		fmt.Printf("\n=== Synthesized tracking program ===\n")
		track := synth.TrackingProgram(h, func(geom.Coord) float64 { return 0 })
		fmt.Println(track.Listing())
	}
}
