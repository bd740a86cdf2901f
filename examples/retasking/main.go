// Dynamic retasking and preventive maintenance: the resource-management
// scenario of Section 3.1 ("querying the properties of sensor nodes such as
// residual energy levels is useful for resource management, dynamic
// retasking, preventive maintenance..."), combined with the leader-rotation
// variant of Section 5.2.
//
// The example runs the full physical stack — deployment, topology
// emulation, and per-cell leader election — then simulates many duty
// cycles in which cell leaders burn energy. Every few cycles leadership is
// re-elected on residual energy with previous leaders excluded (rotation),
// and the network answers a *residual-energy topographic query*: the
// labeling algorithm is run over the feature map "cells whose leader has
// spent more than the maintenance threshold", locating the worn-out regions
// a maintenance crew should visit.
//
//	go run ./examples/retasking
package main

import (
	"fmt"
	"log"
	"math/rand"

	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/emul"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/regions"
	"wsnva/internal/sim"
	"wsnva/internal/synth"
	"wsnva/internal/varch"
)

const (
	side        = 4
	density     = 8
	cycles      = 30
	rotateEvery = 5
	workPerDuty = 40   // energy a leader spends per duty cycle
	wornOut     = 1100 // maintenance threshold (energy units spent)
)

func main() {
	grid := geom.NewSquareGrid(side, 40)
	rng := rand.New(rand.NewSource(11))
	nw, _, err := deploy.Generate(side*side*density, grid, grid.CellSide()*1.3, deploy.UniformRandom{}, rng, 100)
	if err != nil {
		log.Fatal(err)
	}
	stack := emul.NewStack(nw, grid, emul.Config{})
	if _, m := stack.Emulate(); !m.Complete {
		log.Fatal("emulation incomplete")
	}

	// Initial binding (closest-to-center) plus the managed rotation service.
	rot, err := stack.Rotator()
	if err != nil {
		log.Fatal(err)
	}
	physLedger := stack.Ledger()
	fmt.Printf("deployment: %d nodes, %d cells, initial leaders elected by distance\n\n", nw.N(), grid.N())

	for cycle := 1; cycle <= cycles; cycle++ {
		// Leaders burn energy doing the cell's share of the duty cycle.
		for _, id := range rot.Current().Leaders {
			physLedger.Charge(id, cost.Compute, workPerDuty)
		}
		if cycle%rotateEvery != 0 {
			continue
		}
		res, err := rot.Rotate()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cycle %2d: rotated leadership in %d broadcasts; %d distinct nodes have led so far\n",
			cycle, res.Broadcasts, rot.DistinctLeaders())
	}

	// Preventive-maintenance query: label the worn-out regions. The feature
	// map marks cells whose *most-drained member* crossed the threshold.
	bits := make([]bool, grid.N())
	for idx, members := range nw.CellMembers(grid) {
		for _, id := range members {
			if physLedger.Energy(id) >= wornOut {
				bits[idx] = true
				break
			}
		}
	}
	m := field.FromBits(grid, bits)
	fmt.Printf("\nworn-out map after %d cycles (threshold %d units):\n%s\n", cycles, wornOut, m)

	hier := varch.MustHierarchy(grid)
	appLedger := cost.NewLedger(cost.NewUniform(), grid.N())
	vm := varch.NewMachine(hier, sim.New(), appLedger)
	resQ, err := synth.RunOnMachine(vm, m)
	if err != nil {
		log.Fatal(err)
	}
	truth := regions.Label(m)
	fmt.Printf("worn-out regions found in-network: %d (ground truth %d)\n", resQ.Final.Count(), truth.Count)
	for _, r := range resQ.Final.Regions() {
		fmt.Printf("  maintenance zone %d: %d cells, bbox cols %d-%d rows %d-%d\n",
			r.Label, r.Cells, r.Box.MinCol, r.Box.MaxCol, r.Box.MinRow, r.Box.MaxRow)
	}
	fmt.Printf("\nrotation spread leadership across %d of %d nodes (load spread %.2f)\n",
		rot.DistinctLeaders(), nw.N(), rot.Spread())
}
