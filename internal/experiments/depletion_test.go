package experiments

import (
	"os"
	"testing"

	"wsnva/internal/battery"
	"wsnva/internal/cost"
	"wsnva/internal/fault"
	"wsnva/internal/synth"
)

// TestE19GoldenCSV pins the quick lifetime sweep byte-for-byte against its
// block of the quick-tables golden: deploys, elections, depletion order,
// and rotation decisions are all pure functions of the seeds.
func TestE19GoldenCSV(t *testing.T) { checkQuickGolden(t, "E19") }

// TestE19RotationExtendsLifetime is the sweep's headline claim checked
// directly on the mission driver: at every budget, rotating executors onto
// the highest-residual member delays the first depletion (in rounds) at
// least as long as static leaders do, and delivers at least as many
// completed rounds.
func TestE19RotationExtendsLifetime(t *testing.T) {
	for _, budget := range e19Budgets {
		static, _ := lifetimeMission(budget, false, nil)
		rotate, _ := lifetimeMission(budget, true, nil)
		sFirst, rFirst := static.FirstDeathRound, rotate.FirstDeathRound
		// -1 means nobody died within MaxRounds: treat as beyond the horizon.
		if sFirst == -1 {
			sFirst = e19MaxRounds + 1
		}
		if rFirst == -1 {
			rFirst = e19MaxRounds + 1
		}
		if rFirst < sFirst {
			t.Errorf("budget %d: rotation first death round %d earlier than static %d",
				budget, rotate.FirstDeathRound, static.FirstDeathRound)
		}
		if rotate.Rounds < static.Rounds {
			t.Errorf("budget %d: rotation completed %d rounds < static %d",
				budget, rotate.Rounds, static.Rounds)
		}
		if rotate.DistinctLeaders < static.DistinctLeaders {
			t.Errorf("budget %d: rotation used %d distinct leaders < static %d",
				budget, rotate.DistinctLeaders, static.DistinctLeaders)
		}
	}
}

// TestE19LifetimeMonotoneInBudget: within a mode, a larger budget never
// shortens the mission — rounds completed and first-death round are both
// non-decreasing, because the trajectory is identical until the smaller
// budget's first depletion.
func TestE19LifetimeMonotoneInBudget(t *testing.T) {
	for _, rotate := range []bool{false, true} {
		prevRounds, prevFirst := -1, -1
		for _, budget := range e19Budgets {
			out, _ := lifetimeMission(budget, rotate, nil)
			first := out.FirstDeathRound
			if first == -1 {
				first = e19MaxRounds + 1
			}
			if out.Rounds < prevRounds {
				t.Errorf("rotate=%v budget %d: rounds fell %d -> %d", rotate, budget, prevRounds, out.Rounds)
			}
			if first < prevFirst {
				t.Errorf("rotate=%v budget %d: first death moved earlier %d -> %d", rotate, budget, prevFirst, first)
			}
			prevRounds, prevFirst = out.Rounds, first
		}
	}
}

// TestE20ARQAcceleratesDepletion: the E20 claim on the driver — at a fixed
// budget under loss, arming the ARQ spends more total energy and depletes
// at least as many nodes as best-effort delivery, on both channel models.
func TestE20ARQAcceleratesDepletion(t *testing.T) {
	burst := fault.DefaultBurst()
	cases := []struct {
		name string
		cfg  synth.FaultConfig
	}{
		{"bernoulli", synth.FaultConfig{Loss: 0.2, LossSeed: 41}},
		{"burst", synth.FaultConfig{Burst: &burst, BurstSeed: 97}},
	}
	for _, tc := range cases {
		run := func(rel fault.Reliability) (int, cost.Energy) {
			cfg := tc.cfg
			cfg.Reliability = rel
			cfg.Battery = battery.Uniform(64, 100)
			res, vm := faultRound(8, 7, cfg, nil)
			return res.Depleted, vm.Ledger().Total()
		}
		plainDead, plainEnergy := run(fault.Reliability{})
		arqDead, arqEnergy := run(fault.DefaultReliability())
		if arqEnergy <= plainEnergy {
			t.Errorf("%s: ARQ energy %d not above best-effort %d", tc.name, arqEnergy, plainEnergy)
		}
		if arqDead < plainDead {
			t.Errorf("%s: ARQ depleted %d < best-effort %d", tc.name, arqDead, plainDead)
		}
	}
}

// TestDepletionSoak runs the randomized-but-seeded invariant check over a
// batch of configurations (loss rate, budget, ARQ on/off all drawn from the
// seed). `make soak` widens the batch via the SOAK_SEEDS env var.
func TestDepletionSoak(t *testing.T) {
	seeds := int64(6)
	if s := os.Getenv("SOAK_SEEDS"); s != "" {
		var parsed int64
		for _, c := range []byte(s) {
			if c < '0' || c > '9' {
				t.Fatalf("SOAK_SEEDS must be a positive integer, got %q", s)
			}
			parsed = parsed*10 + int64(c-'0')
		}
		if parsed > 0 {
			seeds = parsed
		}
	}
	for seed := int64(1); seed <= seeds; seed++ {
		if err := depletionSoakRound(seed); err != nil {
			t.Error(err)
		}
	}
}
