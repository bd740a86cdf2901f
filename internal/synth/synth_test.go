package synth

import (
	"math/rand"
	"strings"
	"testing"

	"wsnva/internal/cost"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/regions"
	"wsnva/internal/sim"
	"wsnva/internal/varch"
)

func newMachine(side int) (*varch.Machine, *cost.Ledger) {
	g := geom.NewSquareGrid(side, float64(side))
	h := varch.MustHierarchy(g)
	l := cost.NewLedger(cost.NewUniform(), g.N())
	return varch.NewMachine(h, sim.New(), l), l
}

func TestListingResemblesFigure4(t *testing.T) {
	g := geom.NewSquareGrid(4, 4)
	h := varch.MustHierarchy(g)
	spec := LabelingProgram(h, field.FromBits(g, make([]bool, g.N())))
	listing := spec.Listing()
	for _, want := range []string{
		"Condition : start = true",
		"compute mySubGraph[0] from intra-cell readings",
		"received mGraph = {senderCoord, msubGraph, mrecLevel}",
		"msgsReceived[mrecLevel]++",
		"Condition : transmit = true",
		"exfiltrate message",
		"send message to Leader(recLevel+1)",
		"msgsReceived[recLevel] = 3",
	} {
		if !strings.Contains(listing, want) {
			t.Errorf("listing missing %q:\n%s", want, listing)
		}
	}
}

func runMap(t *testing.T, side int, m *field.BinaryMap) (*Result, *cost.Ledger) {
	t.Helper()
	g := m.Grid
	h := varch.MustHierarchy(g)
	l := cost.NewLedger(cost.NewUniform(), g.N())
	vm := varch.NewMachine(h, sim.New(), l)
	res, err := RunOnMachine(vm, m)
	if err != nil {
		t.Fatalf("side %d: %v", side, err)
	}
	return res, l
}

func TestLabelingMatchesGroundTruthHandMaps(t *testing.T) {
	g := geom.NewSquareGrid(4, 4)
	cases := [][]string{
		{"....", "....", "....", "...."},
		{"####", "####", "####", "####"},
		{"#...", ".#..", "..#.", "...#"}, // 4 diagonal singletons
		{"##..", "##..", "..##", "..##"},
		{"####", "#..#", "#..#", "####"}, // ring
		{"#.#.", "....", ".#.#", "...."},
	}
	for i, rows := range cases {
		m := field.Parse(g, rows...)
		truth := regions.Label(m)
		res, _ := runMap(t, 4, m)
		if res.Final.Count() != truth.Count {
			t.Errorf("case %d: distributed count %d, truth %d", i, res.Final.Count(), truth.Count)
		}
		if res.Final.TotalCells() != m.Count() {
			t.Errorf("case %d: cells %d, map has %d", i, res.Final.TotalCells(), m.Count())
		}
		if !res.Final.Complete() {
			t.Errorf("case %d: final summary does not cover the grid", i)
		}
	}
}

func TestLabelingMatchesGroundTruthRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, side := range []int{2, 4, 8, 16} {
		for trial := 0; trial < 5; trial++ {
			g := geom.NewSquareGrid(side, float64(side))
			bits := make([]bool, g.N())
			for i := range bits {
				bits[i] = rng.Intn(3) == 0
			}
			m := field.FromBits(g, bits)
			truth := regions.Label(m)
			res, _ := runMap(t, side, m)
			if res.Final.Count() != truth.Count {
				t.Errorf("side %d trial %d: count %d vs truth %d", side, trial, res.Final.Count(), truth.Count)
			}
			// Region labels and sizes must agree exactly with ground truth.
			sizes := truth.Sizes()
			for _, r := range res.Final.Regions() {
				if sizes[r.Label] != r.Cells {
					t.Errorf("side %d trial %d: region %d has %d cells, truth %d",
						side, trial, r.Label, r.Cells, sizes[r.Label])
				}
			}
		}
	}
}

func TestTrivialGrid(t *testing.T) {
	g := geom.NewSquareGrid(1, 1)
	m := field.Parse(g, "#")
	res, l := runMap(t, 1, m)
	if res.Final.Count() != 1 {
		t.Errorf("count = %d", res.Final.Count())
	}
	if res.Completion != 0 {
		t.Errorf("1x1 grid should complete at t=0, got %d", res.Completion)
	}
	// Sense + compute only — no communication energy.
	if l.Units(cost.Tx) != 0 || l.Units(cost.Rx) != 0 {
		t.Error("1x1 grid should move no data")
	}
}

func TestCompletionScalesAsSqrtN(t *testing.T) {
	// Section 4.1: the algorithm runs in O(sqrt N) steps, a claim about
	// fixed-size data per step. With a bounded feature set (one 2x2 block
	// regardless of grid size) summary sizes are O(1), so completion under
	// the uniform model grows linearly in the grid side: ratio ~2 per
	// doubling, clearly below the ~4 that O(N) behavior would give.
	completion := func(side int) sim.Time {
		g := geom.NewSquareGrid(side, float64(side))
		bits := make([]bool, g.N())
		m := field.FromBits(g, bits)
		for _, c := range []geom.Coord{{Col: 0, Row: 0}, {Col: 1, Row: 0}, {Col: 0, Row: 1}, {Col: 1, Row: 1}} {
			m.Bits[g.Index(c)] = true
		}
		res, _ := runMap(t, side, m)
		return res.Completion
	}
	t4, t8, t16, t32 := completion(4), completion(8), completion(16), completion(32)
	if !(t4 < t8 && t8 < t16 && t16 < t32) {
		t.Fatalf("completion not increasing: %d %d %d %d", t4, t8, t16, t32)
	}
	for _, pair := range [][2]sim.Time{{t4, t8}, {t8, t16}, {t16, t32}} {
		ratio := float64(pair[1]) / float64(pair[0])
		if ratio > 3.0 {
			t.Errorf("completion ratio %v too steep for O(sqrt N) with bounded features", ratio)
		}
	}
	// Contrast: a solid feature field has summaries that grow with block
	// perimeter, so completion grows superlinearly in the side — the
	// data-dependent behavior EXPERIMENTS.md documents for E2.
	solid := func(side int) sim.Time {
		g := geom.NewSquareGrid(side, float64(side))
		m := field.Threshold(field.Constant{Value: 1}, g, 0.5, 0)
		res, _ := runMap(t, side, m)
		return res.Completion
	}
	s8, s32 := solid(8), solid(32)
	if float64(s32)/float64(s8) < 8 {
		t.Errorf("solid-field completion should grow superlinearly: %d -> %d", s8, s32)
	}
}

func TestRuleFiringsLinearInN(t *testing.T) {
	// Every node fires start+transmit; leaders fire a few more. Total rule
	// firings must be Theta(N), not superlinear.
	count := func(side int) int64 {
		g := geom.NewSquareGrid(side, float64(side))
		m := field.Threshold(field.Constant{Value: 1}, g, 0.5, 0)
		res, _ := runMap(t, side, m)
		return res.RuleFirings
	}
	c8, c16 := count(8), count(16)
	if ratio := float64(c16) / float64(c8); ratio < 3.5 || ratio > 4.6 {
		t.Errorf("firing ratio %v for 4x node count, want ~4", ratio)
	}
}

func TestEnergyAccountingConsistent(t *testing.T) {
	g := geom.NewSquareGrid(8, 8)
	m := field.Threshold(field.RandomBlobs(3, g.Terrain, 1, 2, rand.New(rand.NewSource(41))), g, 0.5, 0)
	_, l := runMap(t, 8, m)
	// Uniform model: every unit transmitted is received exactly once
	// (XY routing, no loss), so tx and rx unit counts match.
	if l.Units(cost.Tx) != l.Units(cost.Rx) {
		t.Errorf("tx units %d != rx units %d", l.Units(cost.Tx), l.Units(cost.Rx))
	}
	if l.Units(cost.Sense) != int64(g.N()) {
		t.Errorf("sense units = %d, want one per node", l.Units(cost.Sense))
	}
	if l.Metrics().Total <= 0 {
		t.Error("no energy recorded")
	}
}

func TestRootIsHotSpot(t *testing.T) {
	// The NW-corner mapping concentrates merge work at the root: it must be
	// the maximum-energy node (the energy-balance story of E4).
	g := geom.NewSquareGrid(8, 8)
	m := field.Threshold(field.Constant{Value: 1}, g, 0.5, 0)
	_, l := runMap(t, 8, m)
	rootE := l.Energy(g.Index(geom.Coord{}))
	if rootE != l.Metrics().Max {
		t.Errorf("root energy %d, max %d — expected root to be hottest", rootE, l.Metrics().Max)
	}
}

func TestGridMismatchError(t *testing.T) {
	vm, _ := newMachine(4)
	other := geom.NewSquareGrid(4, 4)
	m := field.Threshold(field.Constant{Value: 1}, other, 0.5, 0)
	if _, err := RunOnMachine(vm, m); err == nil {
		t.Error("grid mismatch should error")
	}
}

// TestExhaustive4x4 verifies the synthesized program against ground truth
// on EVERY possible 4x4 feature map — all 65 536 of them. This is the
// strongest correctness statement the grid size allows: region counts,
// per-region cell counts, and canonical labels all match the sequential
// union-find labeler on the entire input space.
func TestExhaustive4x4(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep skipped in -short mode")
	}
	g := geom.NewSquareGrid(4, 4)
	h := varch.MustHierarchy(g)
	bits := make([]bool, 16)
	for mask := 0; mask < 1<<16; mask++ {
		for i := range bits {
			bits[i] = mask>>i&1 == 1
		}
		m := field.FromBits(g, bits)
		l := cost.NewLedger(cost.NewUniform(), g.N())
		vm := varch.NewMachine(h, sim.New(), l)
		res, err := RunOnMachine(vm, m)
		if err != nil {
			t.Fatalf("mask %04x: %v", mask, err)
		}
		truth := regions.Label(m)
		if res.Final.Count() != truth.Count {
			t.Fatalf("mask %04x: count %d, truth %d", mask, res.Final.Count(), truth.Count)
		}
		sizes := truth.Sizes()
		for _, r := range res.Final.Regions() {
			if sizes[r.Label] != r.Cells {
				t.Fatalf("mask %04x: region %d has %d cells, truth %d", mask, r.Label, r.Cells, sizes[r.Label])
			}
		}
	}
}

// TestJitteredDeliveryOrderIndependence reorders deliveries with seeded
// jitter on the DES engine: the final summary and total energy must be
// identical under every jitter seed — reproducible evidence that the
// synthesized program tolerates the paper's unpredictable-latency network.
func TestJitteredDeliveryOrderIndependence(t *testing.T) {
	g0 := geom.NewSquareGrid(8, 8)
	m := field.Threshold(field.RandomBlobs(4, g0.Terrain, 1, 2, rand.New(rand.NewSource(61))), g0, 0.5, 0)
	h := varch.MustHierarchy(g0)
	var ref *Result
	var refEnergy cost.Energy
	for seed := int64(0); seed < 12; seed++ {
		l := cost.NewLedger(cost.NewUniform(), g0.N())
		vm := varch.NewMachine(h, sim.New(), l)
		if seed > 0 {
			vm.SetJitter(50, rand.New(rand.NewSource(seed)))
		}
		res, err := RunOnMachine(vm, m)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if seed == 0 {
			ref = res
			refEnergy = cost.Energy(l.Metrics().Total)
			continue
		}
		if !res.Final.Equal(ref.Final) {
			t.Fatalf("seed %d: jitter changed the result", seed)
		}
		if cost.Energy(l.Metrics().Total) != refEnergy {
			t.Fatalf("seed %d: jitter changed the energy", seed)
		}
		if res.Completion < ref.Completion {
			t.Errorf("seed %d: jitter cannot make completion earlier", seed)
		}
	}
}

func TestDeterministicExecution(t *testing.T) {
	g1 := geom.NewSquareGrid(8, 8)
	m1 := field.Threshold(field.RandomBlobs(4, g1.Terrain, 1, 2, rand.New(rand.NewSource(5))), g1, 0.5, 0)
	r1, l1 := runMap(t, 8, m1)
	g2 := geom.NewSquareGrid(8, 8)
	m2 := field.Threshold(field.RandomBlobs(4, g2.Terrain, 1, 2, rand.New(rand.NewSource(5))), g2, 0.5, 0)
	r2, l2 := runMap(t, 8, m2)
	if r1.Completion != r2.Completion || r1.RuleFirings != r2.RuleFirings {
		t.Error("execution not deterministic")
	}
	if l1.Metrics() != l2.Metrics() {
		t.Error("energy accounting not deterministic")
	}
	if !r1.Final.Equal(r2.Final) {
		t.Error("results not deterministic")
	}
}

// Every rule of the synthesized program must fire somewhere in a normal
// round — a never-firing rule would mean the synthesis emitted dead code.
func TestRuleCoverageComplete(t *testing.T) {
	g := geom.NewSquareGrid(8, 8)
	m := field.Threshold(field.Constant{Value: 1}, g, 0.5, 0)
	res, _ := runMap(t, 8, m)
	if len(res.RuleCoverage) != 4 {
		t.Fatalf("coverage for %d rules, want 4", len(res.RuleCoverage))
	}
	names := []string{"start", "receive", "transmit", "promote"}
	for i, n := range res.RuleCoverage {
		if n == 0 {
			t.Errorf("rule %q never fired", names[i])
		}
	}
	// Structural counts: start fires once per node; receive fires once per
	// external message (3 per leader per level it leads).
	if res.RuleCoverage[0] != int64(g.N()) {
		t.Errorf("start fired %d times, want %d", res.RuleCoverage[0], g.N())
	}
}
