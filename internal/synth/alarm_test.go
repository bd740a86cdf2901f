package synth

import (
	"math/rand"
	"testing"

	"wsnva/internal/cost"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/regions"
	"wsnva/internal/sim"
	"wsnva/internal/varch"
)

func runAlarm(t *testing.T, m *field.BinaryMap, quorum int) (*AlarmResult, *cost.Ledger) {
	t.Helper()
	h := varch.MustHierarchy(m.Grid)
	l := cost.NewLedger(cost.NewUniform(), m.Grid.N())
	vm := varch.NewMachine(h, sim.New(), l)
	res, err := RunAlarmOnMachine(vm, m, quorum)
	if err != nil {
		t.Fatal(err)
	}
	return res, l
}

func TestAlarmQuorumFires(t *testing.T) {
	g := geom.NewSquareGrid(8, 8)
	m := field.Parse(g,
		"........",
		"..###...",
		"..###...",
		"........",
		"........",
		"........",
		"........",
		"........",
	)
	res, _ := runAlarm(t, m, 5)
	if !res.Raised {
		t.Fatal("6 hot cells should satisfy quorum 5")
	}
	if res.AtCount < 5 || res.AtCount > 6 {
		t.Errorf("quorum fired at count %d", res.AtCount)
	}
	if res.FinalCount != 6 {
		t.Errorf("final count %d, want 6 (no double counting)", res.FinalCount)
	}
	// The alarm bounding box at quorum time is within the hot area.
	if res.Box.MinCol < 2 || res.Box.MaxCol > 4 || res.Box.MinRow < 1 || res.Box.MaxRow > 2 {
		t.Errorf("alarm box %+v escapes the hot area", res.Box)
	}
	if res.RaisedAt <= 0 {
		t.Error("alarm cannot be instantaneous from 2 hops away")
	}
}

func TestAlarmBelowQuorumSilent(t *testing.T) {
	g := geom.NewSquareGrid(8, 8)
	m := field.Parse(g,
		"#.......", "........", "........", "........",
		"........", "........", "........", ".......#",
	)
	res, _ := runAlarm(t, m, 3)
	if res.Raised {
		t.Error("2 hot cells must not satisfy quorum 3")
	}
	if res.FinalCount != 2 {
		t.Errorf("root should still have counted %d alarms, got %d", 2, res.FinalCount)
	}
}

func TestAlarmNothingBurningCostsOnlySensing(t *testing.T) {
	// The event-driven economy: with no events, the network spends nothing
	// beyond the mandatory sample — contrast with the labeling program,
	// whose cost is Θ(N) regardless.
	g := geom.NewSquareGrid(16, 16)
	m := field.Threshold(field.Constant{Value: 0}, g, 0.5, 0)
	res, l := runAlarm(t, m, 1)
	if res.Raised || res.FinalCount != 0 {
		t.Error("nothing burns, nothing fires")
	}
	if l.Units(cost.Tx) != 0 || l.Units(cost.Rx) != 0 || l.Units(cost.Compute) != 0 {
		t.Errorf("idle network moved data: tx=%d rx=%d compute=%d",
			l.Units(cost.Tx), l.Units(cost.Rx), l.Units(cost.Compute))
	}
	if l.Units(cost.Sense) != int64(g.N()) {
		t.Errorf("sense units = %d, want one per node", l.Units(cost.Sense))
	}
}

func TestAlarmEnergyScalesWithEvents(t *testing.T) {
	g1 := geom.NewSquareGrid(16, 16)
	small := field.FromBits(g1, make([]bool, g1.N()))
	small.Bits[g1.Index(geom.Coord{Col: 9, Row: 9})] = true
	_, lSmall := runAlarm(t, small, 999)

	g2 := geom.NewSquareGrid(16, 16)
	big := field.FromBits(g2, make([]bool, g2.N()))
	for col := 8; col < 16; col++ {
		for row := 8; row < 16; row++ {
			big.Bits[g2.Index(geom.Coord{Col: col, Row: row})] = true
		}
	}
	_, lBig := runAlarm(t, big, 999)
	if lBig.Metrics().Total < 10*lSmall.Metrics().Total {
		t.Errorf("64 alarms (%d units) should cost >>1 alarm (%d units)",
			lBig.Metrics().Total, lSmall.Metrics().Total)
	}
}

func TestAlarmCountExactOnRandomMaps(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := geom.NewSquareGrid(8, 8)
		rng := rand.New(rand.NewSource(seed))
		bits := make([]bool, g.N())
		hot := 0
		for i := range bits {
			if rng.Intn(4) == 0 {
				bits[i] = true
				hot++
			}
		}
		m := field.FromBits(g, bits)
		res, _ := runAlarm(t, m, 1)
		if res.FinalCount != hot {
			t.Errorf("seed %d: counted %d alarms, want %d", seed, res.FinalCount, hot)
		}
		if hot > 0 != res.Raised {
			t.Errorf("seed %d: raised=%v with %d hot cells, quorum 1", seed, res.Raised, hot)
		}
		if res.Raised && res.Box != bboxOfMap(m) && res.AtCount == hot {
			// Box at quorum time covers the alarms seen so far; only when
			// the quorum fired on the last alarm must it cover everything.
			t.Errorf("seed %d: final box %+v != map bbox %+v", seed, res.Box, bboxOfMap(m))
		}
	}
}

func bboxOfMap(m *field.BinaryMap) regions.BBox {
	var box regions.BBox
	first := true
	for _, c := range m.Grid.Coords() {
		if !m.At(c) {
			continue
		}
		b := regions.BBox{MinCol: c.Col, MinRow: c.Row, MaxCol: c.Col, MaxRow: c.Row}
		if first {
			box = b
			first = false
		} else {
			box = box.Union(b)
		}
	}
	return box
}

func TestAlarmListing(t *testing.T) {
	g := geom.NewSquareGrid(4, 4)
	h := varch.MustHierarchy(g)
	spec := AlarmProgram(h, field.FromBits(g, make([]bool, g.N())), 2)
	listing := spec.Listing()
	for _, want := range []string{"alarmTotal", "quorum", "exfiltrate"} {
		if !contains(listing, want) {
			t.Errorf("alarm listing missing %q", want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestAlarmQuorumValidation(t *testing.T) {
	g := geom.NewSquareGrid(4, 4)
	h := varch.MustHierarchy(g)
	defer func() {
		if recover() == nil {
			t.Error("quorum 0 should panic")
		}
	}()
	AlarmProgram(h, field.FromBits(g, make([]bool, g.N())), 0)
}
