// Command topoviz renders ASCII views of the system's layers: the physical
// deployment with cell boundaries and elected leaders, per-cell occupancy,
// and the labeled region map with one letter per region. It is the
// debugging lens for the runtime-system protocols.
//
// Usage:
//
//	topoviz [-side 4] [-density 8] [-seed 1] [-res 3] [-field blobs]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"wsnva/internal/binding"
	"wsnva/internal/contour"
	"wsnva/internal/deploy"
	"wsnva/internal/emul"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/regions"
)

func main() {
	side := flag.Int("side", 4, "virtual grid side (power of two)")
	density := flag.Int("density", 8, "mean nodes per cell")
	seed := flag.Int64("seed", 1, "deployment seed")
	res := flag.Int("res", 3, "character cells drawn per grid cell per axis")
	fieldName := flag.String("field", "blobs", "phenomenon: blobs, gradient, stripes")
	flag.Parse()
	if !geom.IsPow2(*side) || *res < 1 {
		log.Fatal("topoviz: -side must be a power of two and -res >= 1")
	}

	grid := geom.NewSquareGrid(*side, float64(*side)*10)
	rng := rand.New(rand.NewSource(*seed))
	nw, _, err := deploy.Generate(*side**side**density, grid, grid.CellSide()*1.3, deploy.UniformRandom{}, rng, 100)
	if err != nil {
		log.Fatal(err)
	}
	stack := emul.NewStack(nw, grid, emul.Config{})
	_, em := stack.Emulate()
	bnd, _, err := stack.Bind()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("deployment: %d nodes, grid %dx%d, emulation complete=%v (%d broadcasts)\n\n",
		nw.N(), *side, *side, em.Complete, em.Broadcasts)

	fmt.Println("physical view ('.'=empty, digit=node count, 'L'=cell with its elected leader drawn):")
	fmt.Print(renderDeployment(nw, grid, bnd, *res))

	fmt.Println("\nper-cell occupancy:")
	members := nw.CellMembers(grid)
	for row := 0; row < grid.Rows; row++ {
		for col := 0; col < grid.Cols; col++ {
			fmt.Printf("%4d", len(members[grid.Index(geom.Coord{Col: col, Row: row})]))
		}
		fmt.Println()
	}

	var phen field.Field
	switch *fieldName {
	case "blobs":
		phen = field.RandomBlobs(3, grid.Terrain, grid.Terrain.Width()/8, grid.Terrain.Width()/5,
			rand.New(rand.NewSource(*seed+2)))
	case "gradient":
		phen = field.Gradient{DX: 2 / grid.Terrain.Width()}
	case "stripes":
		phen = field.Stripes{Width: grid.Terrain.Width() / 4, High: 1}
	default:
		log.Fatalf("topoviz: unknown field %q", *fieldName)
	}
	m := field.Threshold(phen, grid, 0.5, 0)
	lab := regions.Label(m)
	fmt.Printf("\nlabeled regions for %q (letters = regions, '.' = background):\n", phen.Name())
	fmt.Print(renderRegions(lab, grid))

	loops := contour.Extract(m)
	fmt.Printf("\nregion contours (%d loops, outer perimeter %d):\n", len(loops), contour.Perimeter(loops))
	fmt.Print(contour.Render(grid, loops))
}

// renderDeployment draws the terrain at res characters per cell per axis.
func renderDeployment(nw *deploy.Network, grid *geom.Grid, bnd *binding.Binding, res int) string {
	w, h := grid.Cols*res, grid.Rows*res
	canvas := make([][]byte, h)
	for i := range canvas {
		canvas[i] = []byte(strings.Repeat(".", w))
	}
	cellW := grid.Terrain.Width() / float64(w)
	cellH := grid.Terrain.Height() / float64(h)
	plot := func(p geom.Point) (int, int) {
		x := int((p.X - grid.Terrain.MinX) / cellW)
		y := int((p.Y - grid.Terrain.MinY) / cellH)
		if x >= w {
			x = w - 1
		}
		if y >= h {
			y = h - 1
		}
		return x, y
	}
	leaderAt := map[int]bool{}
	for _, id := range bnd.Leaders {
		leaderAt[id] = true
	}
	for _, nd := range nw.Nodes {
		x, y := plot(nd.Pos)
		switch c := canvas[y][x]; {
		case leaderAt[nd.ID]:
			canvas[y][x] = 'L'
		case c == '.':
			canvas[y][x] = '1'
		case c >= '1' && c < '9':
			canvas[y][x] = c + 1
		case c == 'L':
			// keep the leader marker
		default:
			canvas[y][x] = '9'
		}
	}
	var b strings.Builder
	hline := "+" + strings.Repeat(strings.Repeat("-", res)+"+", grid.Cols) + "\n"
	for row := 0; row < grid.Rows; row++ {
		b.WriteString(hline)
		for sub := 0; sub < res; sub++ {
			b.WriteByte('|')
			for col := 0; col < grid.Cols; col++ {
				b.Write(canvas[row*res+sub][col*res : (col+1)*res])
				b.WriteByte('|')
			}
			b.WriteByte('\n')
		}
	}
	b.WriteString(hline)
	return b.String()
}

// renderRegions draws a labeling with a stable letter per region.
func renderRegions(lab *regions.Labeling, grid *geom.Grid) string {
	letters := "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
	letterOf := map[int]byte{}
	next := 0
	var b strings.Builder
	for row := 0; row < grid.Rows; row++ {
		for col := 0; col < grid.Cols; col++ {
			l := lab.Labels[grid.Index(geom.Coord{Col: col, Row: row})]
			if l < 0 {
				b.WriteByte('.')
				continue
			}
			ch, ok := letterOf[l]
			if !ok {
				ch = letters[next%len(letters)]
				next++
				letterOf[l] = ch
			}
			b.WriteByte(ch)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
