package runtime

import (
	"math"
	"math/rand"
	"testing"

	"wsnva/internal/cost"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/regions"
	"wsnva/internal/sim"
	"wsnva/internal/synth"
	"wsnva/internal/varch"
)

func blobMap(side int, seed int64) *field.BinaryMap {
	g := geom.NewSquareGrid(side, float64(side))
	return field.Threshold(field.RandomBlobs(3, g.Terrain, 1, 2, rand.New(rand.NewSource(seed))), g, 0.5, 0)
}

func TestLosslessRunMatchesGroundTruth(t *testing.T) {
	for _, side := range []int{2, 4, 8, 16} {
		m := blobMap(side, int64(side))
		h := varch.MustHierarchy(m.Grid)
		res, err := New(h).Run(m, nil, Config{Seed: 1})
		if err != nil {
			t.Fatalf("side %d: %v", side, err)
		}
		if res.Stalled || res.Final == nil {
			t.Fatalf("side %d: lossless run stalled", side)
		}
		truth := regions.Label(m)
		if res.Final.Count() != truth.Count {
			t.Errorf("side %d: count %d vs truth %d", side, res.Final.Count(), truth.Count)
		}
		if res.Dropped != 0 {
			t.Errorf("side %d: dropped %d with loss 0", side, res.Dropped)
		}
		if res.RootCoverage != m.Grid.N() {
			t.Errorf("side %d: root coverage %d", side, res.RootCoverage)
		}
	}
}

func TestConcurrentAgreesWithDESMachine(t *testing.T) {
	// The same map through both engines must produce identical final
	// summaries and identical total energy — the two-engine agreement
	// test DESIGN.md calls out.
	m := blobMap(8, 77)
	h := varch.MustHierarchy(m.Grid)

	desLedger := cost.NewLedger(cost.NewUniform(), m.Grid.N())
	vm := varch.NewMachine(h, sim.New(), desLedger)
	desRes, err := synth.RunOnMachine(vm, m)
	if err != nil {
		t.Fatal(err)
	}

	rtLedger := cost.NewLedger(cost.NewUniform(), m.Grid.N())
	rtRes, err := New(h).Run(m, rtLedger, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !rtRes.Final.Equal(desRes.Final) {
		t.Error("concurrent and DES engines disagree on the final summary")
	}
	if rtLedger.Metrics().Total != desLedger.Metrics().Total {
		t.Errorf("energy disagrees: concurrent %d, DES %d",
			rtLedger.Metrics().Total, desLedger.Metrics().Total)
	}
	if rtRes.RuleFirings != desRes.RuleFirings {
		t.Errorf("rule firings disagree: %d vs %d", rtRes.RuleFirings, desRes.RuleFirings)
	}
}

func TestManySchedulesSameAnswer(t *testing.T) {
	// Repeated concurrent runs exercise different Go schedules; the final
	// summary must be identical every time (order-independence).
	m := blobMap(8, 13)
	h := varch.MustHierarchy(m.Grid)
	var ref *regions.Summary
	for trial := 0; trial < 10; trial++ {
		res, err := New(h).Run(m, nil, Config{Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stalled {
			t.Fatal("lossless run stalled")
		}
		if ref == nil {
			ref = res.Final
			continue
		}
		if !res.Final.Equal(ref) {
			t.Fatalf("trial %d produced a different summary", trial)
		}
	}
}

func TestLossyRunsDegradeGracefully(t *testing.T) {
	m := blobMap(8, 21)
	h := varch.MustHierarchy(m.Grid)
	truth := regions.Label(m)
	completed, stalledCount := 0, 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		res, err := New(h).Run(m, nil, Config{Loss: 0.15, Seed: int64(100 + trial)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Final != nil {
			completed++
			// A completed lossy round still covers the whole grid and must
			// agree with ground truth: loss can stall progress but never
			// corrupt a summary that made it through.
			if res.Final.Count() != truth.Count {
				t.Errorf("trial %d: completed round miscounted: %d vs %d",
					trial, res.Final.Count(), truth.Count)
			}
		} else {
			stalledCount++
			if !res.Stalled {
				t.Error("nil result must be flagged stalled")
			}
			if res.RootCoverage >= m.Grid.N() {
				t.Error("stalled round cannot have full root coverage")
			}
			if res.Dropped == 0 {
				t.Error("a stall requires at least one drop")
			}
		}
	}
	// With 15% loss on a 64-node quad-tree (85 messages, any drop on the
	// leader paths stalls the round), stalls dominate; both outcomes should
	// appear over 20 trials only if probability allows — at minimum, the
	// trials must not all complete.
	if completed == trials {
		t.Errorf("all %d trials completed despite 15%% loss", trials)
	}
	t.Logf("loss=0.15: %d/%d completed", completed, trials)
}

func TestHigherLossLowersCoverage(t *testing.T) {
	m := blobMap(16, 33)
	h := varch.MustHierarchy(m.Grid)
	avgCoverage := func(loss float64) float64 {
		total := 0
		const trials = 10
		for trial := 0; trial < trials; trial++ {
			res, err := New(h).Run(m, nil, Config{Loss: loss, Seed: int64(trial)})
			if err != nil {
				t.Fatal(err)
			}
			total += res.RootCoverage
		}
		return float64(total) / trials
	}
	low, high := avgCoverage(0.02), avgCoverage(0.4)
	if high >= low {
		t.Errorf("coverage should fall with loss: %.1f at 2%% vs %.1f at 40%%", low, high)
	}
}

func TestRetriesRestoreCompletion(t *testing.T) {
	// At 15% loss, bare best-effort rounds stall most of the time (see
	// TestLossyRunsDegradeGracefully); with 5 retransmissions the per-
	// message delivery probability is 1-0.15^6 ≈ 0.99999, so rounds
	// complete essentially always — and stay correct.
	m := blobMap(8, 21)
	h := varch.MustHierarchy(m.Grid)
	truth := regions.Label(m)
	completed := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		res, err := New(h).Run(m, nil, Config{Loss: 0.15, Retries: 5, Seed: int64(500 + trial)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Final != nil {
			completed++
			if res.Final.Count() != truth.Count {
				t.Errorf("trial %d: retried round miscounted", trial)
			}
		}
	}
	if completed < trials-1 {
		t.Errorf("only %d/%d completed with 5 retries at 15%% loss", completed, trials)
	}
}

func TestRetriesCostEnergy(t *testing.T) {
	// ARQ is not free: at equal loss, the retrying run spends more energy
	// than the best-effort run (retransmissions plus acks).
	m := blobMap(8, 29)
	h := varch.MustHierarchy(m.Grid)
	energyOf := func(retries int) int64 {
		l := cost.NewLedger(cost.NewUniform(), m.Grid.N())
		if _, err := New(h).Run(m, l, Config{Loss: 0.2, Retries: retries, Seed: 99}); err != nil {
			t.Fatal(err)
		}
		return int64(l.Metrics().Total)
	}
	if bare, arq := energyOf(0), energyOf(8); arq <= bare {
		t.Errorf("ARQ energy %d should exceed best-effort %d at 20%% loss", arq, bare)
	}
}

func TestGenericEngineRunsAlarmProgram(t *testing.T) {
	// The generic engine executes the second application concurrently; the
	// root's final count must match the DES machine's.
	m := blobMap(8, 47)
	h := varch.MustHierarchy(m.Grid)
	const quorum = 2

	desVM := varch.NewMachine(h, sim.New(), cost.NewLedger(cost.NewUniform(), m.Grid.N()))
	desRes, err := synth.RunAlarmOnMachine(desVM, m, quorum)
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 5; trial++ {
		gr, insts, err := RunProgram(New(h), synth.AlarmProgram(h, m, quorum), nil, Config{Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		raised := len(gr.Exfiltrated) > 0
		if raised != desRes.Raised {
			t.Fatalf("trial %d: raised=%v, DES says %v", trial, raised, desRes.Raised)
		}
		totals := insts[m.Grid.Index(h.Root())].State.Total
		if int(totals[h.Levels]) != desRes.FinalCount {
			t.Errorf("trial %d: concurrent count %d, DES %d", trial, totals[h.Levels], desRes.FinalCount)
		}
	}
}

func TestAlarmUnderLossNeverFalsePositive(t *testing.T) {
	// Loss can only LOSE alarm deltas, so a lossy round may undercount but
	// must never raise an alarm a loss-free round would not raise. Map with
	// exactly quorum-1 hot cells: no schedule and no loss pattern may raise.
	g := geom.NewSquareGrid(8, 8)
	m := field.FromBits(g, make([]bool, g.N()))
	m.Bits[g.Index(geom.Coord{Col: 5, Row: 5})] = true
	m.Bits[g.Index(geom.Coord{Col: 2, Row: 6})] = true
	h := varch.MustHierarchy(g)
	const quorum = 3
	for trial := 0; trial < 10; trial++ {
		gr, insts, err := RunProgram(New(h), synth.AlarmProgram(h, m, quorum), nil, Config{Loss: 0.3, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if len(gr.Exfiltrated) != 0 {
			t.Fatalf("trial %d: alarm raised below quorum under loss", trial)
		}
		totals := insts[g.Index(h.Root())].State.Total
		if totals[h.Levels] > 2 {
			t.Fatalf("trial %d: root counted %d alarms from 2 hot cells", trial, totals[h.Levels])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	m := blobMap(4, 1)
	h := varch.MustHierarchy(m.Grid)
	if _, err := New(h).Run(m, nil, Config{Loss: 1.0}); err == nil {
		t.Error("loss=1 should be rejected")
	}
	if _, err := New(h).Run(m, nil, Config{Loss: math.NaN()}); err == nil {
		t.Error("NaN loss should be rejected")
	}
	if _, err := New(h).Run(m, nil, Config{Retries: -1}); err == nil {
		t.Error("negative retries should be rejected")
	}
	other := blobMap(4, 2)
	if _, err := New(h).Run(other, nil, Config{}); err == nil {
		t.Error("grid mismatch should be rejected")
	}
}

func TestTrivialGridConcurrent(t *testing.T) {
	g := geom.NewSquareGrid(1, 1)
	m := field.Parse(g, "#")
	h := varch.MustHierarchy(g)
	res, err := New(h).Run(m, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final == nil || res.Final.Count() != 1 {
		t.Error("1x1 grid should label its single region")
	}
	if res.Delivered != 0 {
		t.Error("1x1 grid sends no messages")
	}
}
