package emul

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"wsnva/internal/churn"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/sim"
	"wsnva/internal/trace"
	"wsnva/internal/trace/check"
)

// churnMap builds the standard blob workload for a churn mission.
func churnMap(g *geom.Grid, seed int64) *field.BinaryMap {
	return field.Threshold(field.RandomBlobs(2, g.Terrain, 6, 10,
		rand.New(rand.NewSource(seed+7))), g, 0.5, 0)
}

// crowdedCell returns the cell with the most deployed members and its
// member list — the natural place to carve nested disturbances from.
func crowdedCell(m *Machine) (geom.Coord, []int) {
	g := m.hier.Grid
	members := m.med.Network().CellMembers(g)
	best, bestLen := geom.Coord{}, -1
	for _, c := range g.Coords() {
		if l := len(members[g.Index(c)]); l > bestLen {
			best, bestLen = c, l
		}
	}
	return best, members[g.Index(best)]
}

// TestChurnFreeRunChurnMatchesRunLabeling pins the harness identity: with
// an empty schedule, RunChurn is exactly one labeling round — same
// summary, same completion time, same traffic, same energy — so every
// churn result is comparable against the plain harness.
func TestChurnFreeRunChurnMatchesRunLabeling(t *testing.T) {
	prop := func(s uint8) bool {
		seed := int64(s%5) + 1
		mA, hA, lA, _ := stack(t, 4, 8, seed)
		mB, hB, lB, _ := stack(t, 4, 8, seed)

		plain, err := mA.RunLabeling(churnMap(hA.Grid, seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		out, err := mB.RunChurn(ChurnConfig{Map: churnMap(hB.Grid, seed)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.Rounds != 1 || out.RepairMsgs != 0 || len(out.Disturbances) != 0 {
			t.Fatalf("seed %d: churn-free mission not a single clean round: %+v", seed, out)
		}
		got, want := out.Final, plain
		if !got.Final.Equal(want.Final) || got.Completion != want.Completion ||
			got.RuleFirings != want.RuleFirings || got.PhysHops != want.PhysHops {
			t.Errorf("seed %d: churn-free RunChurn diverged from RunLabeling", seed)
		}
		msgsA, hopsA := mA.Stats()
		msgsB, hopsB := mB.Stats()
		if msgsA != msgsB || hopsA != hopsB {
			t.Errorf("seed %d: traffic diverged: (%d,%d) vs (%d,%d)", seed, msgsA, hopsA, msgsB, hopsB)
		}
		if lA.Metrics().Total != lB.Metrics().Total {
			t.Errorf("seed %d: energy diverged: %d vs %d", seed, lA.Metrics().Total, lB.Metrics().Total)
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3}); err != nil {
		t.Error(err)
	}
}

// TestDepartReviveQuiesceMatchesNeverChurned: nodes that depart, return,
// and quiesce leave a network that computes the same answer as one that
// never churned — the kill-revive-quiesce convergence property, end to
// end through the labeling application.
func TestDepartReviveQuiesceMatchesNeverChurned(t *testing.T) {
	prop := func(s uint8) bool {
		seed := int64(s%5) + 1
		mA, hA, _, _ := stack(t, 4, 8, seed)
		mB, hB, _, _ := stack(t, 4, 8, seed)

		plain, err := mA.RunLabeling(churnMap(hA.Grid, seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		_, victims := crowdedCell(mB)
		gone := victims[:2]
		sched := churn.Merge(churn.Departures(20, gone...), churn.Arrivals(900, gone...))
		out, err := mB.RunChurn(ChurnConfig{Schedule: sched, Map: churnMap(hB.Grid, seed)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !out.AllRecovered {
			t.Errorf("seed %d: recovery predicate failed: %+v", seed, out.Disturbances)
		}
		if out.Departures != 2 || out.Arrivals != 2 {
			t.Errorf("seed %d: churn accounting wrong: %+v", seed, out)
		}
		if !out.Final.Final.Equal(plain.Final) {
			t.Errorf("seed %d: post-churn labeling differs from never-churned run", seed)
		}
		if out.FinalCoverage != 1 {
			t.Errorf("seed %d: final coverage %v, want 1", seed, out.FinalCoverage)
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3}); err != nil {
		t.Error(err)
	}
}

// TestProportionalRepair pins the tentpole scaling law at two grid sizes:
// the same-shape disturbance (two sleepers in one cell) costs a
// comparable number of repair messages on a 4x4/128-node network and an
// 8x8/512-node network — repair scales with the disturbance, not the
// deployment — and the touched region stays inside the disturbance's
// 2-cell Chebyshev neighborhood.
func TestProportionalRepair(t *testing.T) {
	run := func(side int) (*ChurnOutcome, int) {
		m, h, _, nw := stack(t, side, 8, 3)
		_, victims := crowdedCell(m)
		sched := churn.Departures(50, victims[:2]...)
		out, err := m.RunChurn(ChurnConfig{Schedule: sched, Map: churnMap(h.Grid, 3)})
		if err != nil {
			t.Fatal(err)
		}
		if !out.AllRecovered {
			t.Fatalf("side %d: disturbance did not recover: %+v", side, out.Disturbances)
		}
		return out, nw.N()
	}
	small, nSmall := run(4)
	large, nLarge := run(8)
	if nLarge < 3*nSmall {
		t.Fatalf("scaling setup broken: %d vs %d nodes", nSmall, nLarge)
	}
	if small.RepairMsgs == 0 || large.RepairMsgs == 0 {
		t.Fatal("repair was free — instrumentation broken")
	}
	// A 2-cell neighborhood of one cell is at most 5x5 cells; interior
	// placement on the large grid may see the full square.
	for _, out := range []*ChurnOutcome{small, large} {
		if c := out.Disturbances[0].Cells; c <= 0 || c > 25 {
			t.Errorf("touched %d cells, want within (0,25]", c)
		}
	}
	// Proportionality: 4x the network may not cost 4x the repair. The
	// large grid can see at most the un-clipped neighborhood (25 vs up to
	// 16 cells) plus adoption noise — 3x is generous, 4x would mean the
	// repair scales with n.
	if float64(large.RepairMsgs) > 3*float64(small.RepairMsgs) {
		t.Errorf("repair not proportional: %d msgs on %d nodes vs %d msgs on %d nodes",
			small.RepairMsgs, nSmall, large.RepairMsgs, nLarge)
	}
	// And it must be far below network size on the large grid.
	if large.RepairMsgs > int64(nLarge)/2 {
		t.Errorf("large-grid repair cost %d approaches network size %d", large.RepairMsgs, nLarge)
	}
	t.Logf("repair msgs: %d nodes -> %d, %d nodes -> %d", nSmall, small.RepairMsgs, nLarge, large.RepairMsgs)
}

// TestRepairMsgsMonotoneInDisturbanceSize grows a disturbance one
// well-separated cell at a time and checks repair cost never shrinks —
// and strictly grows from one victim to four.
func TestRepairMsgsMonotoneInDisturbanceSize(t *testing.T) {
	g := geom.NewSquareGrid(4, 40)
	seats := []geom.Coord{{Col: 0, Row: 0}, {Col: 3, Row: 0}, {Col: 0, Row: 3}, {Col: 3, Row: 3}}
	var prev int64 = -1
	var first, last int64
	for d := 1; d <= len(seats); d++ {
		m, h, _, nw := stack(t, 4, 8, 11)
		members := nw.CellMembers(g)
		var victims []int
		for _, c := range seats[:d] {
			cell := members[g.Index(c)]
			if len(cell) == 0 {
				t.Fatalf("seat %v empty — pick another seed", c)
			}
			victims = append(victims, cell[0])
		}
		out, err := m.RunChurn(ChurnConfig{Schedule: churn.Departures(30, victims...),
			Map: churnMap(h.Grid, 11)})
		if err != nil {
			t.Fatal(err)
		}
		if !out.AllRecovered {
			t.Fatalf("disturbance of %d did not recover", d)
		}
		if out.RepairMsgs < prev {
			t.Errorf("repair msgs shrank: %d victims -> %d, %d victims -> %d",
				d-1, prev, d, out.RepairMsgs)
		}
		prev = out.RepairMsgs
		if d == 1 {
			first = out.RepairMsgs
		}
		last = out.RepairMsgs
	}
	if last <= first {
		t.Errorf("repair msgs flat across disturbance sizes: %d .. %d", first, last)
	}
}

// churnMission runs the pinned duty-cycle + departure mission with a
// tracer attached to both the machine and the radio, returning the JSONL
// encoding and the decoded events. Deterministic: the golden test pins it
// byte for byte.
func churnMission(t *testing.T) ([]byte, []trace.Event, *ChurnOutcome) {
	t.Helper()
	m, h, _, nw := stack(t, 4, 8, 2)
	tr := trace.New()
	m.SetTracer(tr)
	m.med.SetTracer(tr)
	_, victims := crowdedCell(m)
	sched := churn.Merge(
		churn.Departures(40, victims[0], victims[1]),
		churn.DutyCycle([]int{victims[2], nw.N() - 1}, 200, 120, 600),
		churn.Arrivals(900, victims[0], victims[1]),
	)
	out, err := m.RunChurn(ChurnConfig{Schedule: sched, Map: churnMap(h.Grid, 2), RoundEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), events, out
}

// recoveryWindow bounds every disturbance's re-convergence in the churn
// missions below; trace/check enforces it offline.
const recoveryWindow = sim.Time(4096)

// TestChurnMissionRecoversWithinBounds drives the full mission and then
// replays its trace through the checker with the bounded-recovery and
// repair-locality rules armed: every disturbance recovered within the
// window, and no repair broadcast originated more than 2 cells from a
// disturbance.
func TestChurnMissionRecoversWithinBounds(t *testing.T) {
	_, events, out := churnMission(t)
	if !out.AllRecovered {
		t.Fatalf("mission left unrecovered disturbances: %+v", out.Disturbances)
	}
	if out.MaxLatency >= recoveryWindow {
		t.Fatalf("max re-convergence latency %d at or beyond window %d", out.MaxLatency, recoveryWindow)
	}
	if out.FinalCoverage != 1 {
		t.Errorf("final coverage %v, want 1 (everyone returned)", out.FinalCoverage)
	}
	if out.Suspends == 0 || out.Resumes == 0 || out.Departures != 2 || out.Arrivals != 2 {
		t.Errorf("mission accounting: %+v", out)
	}
	if out.Rounds < 2 {
		t.Errorf("RoundEvery=3 mission ran %d rounds, want interleaved + final", out.Rounds)
	}
	vs := check.Run(events, check.Options{Side: 4, LedgerTotal: -1,
		RecoveryWindow: recoveryWindow, RepairHops: 2})
	for _, v := range vs {
		t.Errorf("trace violation: %v", v)
	}
}

// TestGoldenChurnTrace pins the mission's exact event stream byte for
// byte: churn markers, sleep/wake flips, repair broadcasts with their
// locality levels, and recovery acknowledgements are all ordering
// contracts. Regenerate with UPDATE_GOLDEN=1 after an intentional
// protocol change and review the diff like any other behavioral change.
func TestGoldenChurnTrace(t *testing.T) {
	got, events, _ := churnMission(t)
	path := filepath.Join("testdata", "churn_repair.trace.jsonl")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d events)", path, len(events))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with UPDATE_GOLDEN=1 to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("churn trace diverged from %s (%d bytes vs %d); regenerate with UPDATE_GOLDEN=1 if intentional",
			path, len(got), len(want))
	}
	decoded, err := trace.Decode(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(events) {
		t.Fatalf("round-trip lost events: %d != %d", len(decoded), len(events))
	}
}

// FuzzChurnRepair throws arbitrary churn schedules at a small deployment
// and asserts the bounded-recovery contract holds unconditionally: the
// mission completes, every disturbance's trace is lawful under the
// checker's recovery and locality rules, and repair traffic stays inside
// the 2-cell neighborhood.
func FuzzChurnRepair(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 2, 1, 0, 3, 2})
	f.Add([]byte{7, 0, 1, 7, 9, 3, 3, 4, 0, 3, 8, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, h, _, nw := stack(t, 4, 5, 1)
		n := nw.N()
		var sched churn.Schedule
		for i := 0; i+2 < len(data) && len(sched) < 24; i += 3 {
			sched = append(sched, churn.Event{
				Node: int(data[i]) % n,
				At:   sim.Time(data[i+1]) * 8,
				Op:   churn.Op(data[i+2] % 4),
			})
		}
		tr := trace.New()
		m.SetTracer(tr)
		m.med.SetTracer(tr)
		out, err := m.RunChurn(ChurnConfig{Schedule: sched, Map: churnMap(h.Grid, 1)})
		if err != nil {
			t.Fatal(err)
		}
		if !out.AllRecovered {
			t.Fatalf("schedule %v left unrecovered disturbances: %+v", sched, out.Disturbances)
		}
		vs := check.Run(tr.Events(), check.Options{Side: 4, LedgerTotal: -1,
			RecoveryWindow: recoveryWindow, RepairHops: 2})
		for _, v := range vs {
			t.Errorf("schedule %v: trace violation: %v", sched, v)
		}
	})
}
