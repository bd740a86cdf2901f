package varch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wsnva/internal/battery"
	"wsnva/internal/cost"
	"wsnva/internal/fault"
	"wsnva/internal/geom"
	"wsnva/internal/sim"
)

// Property-based checks for the battery layer's three laws: an infinite
// budget is invisible (byte-identical to the unmetered fast path), death is
// monotone in the budget (less energy never dies later), and a dead node's
// ledger is frozen (no charge ever lands after depletion).

// driveBatteryTraffic replays driveRandomTraffic's workload — same seed,
// same sends, same loss draws — optionally through a battery bank, and
// returns the machine, its arrivals, and the bank's first death time (max
// sim.Time if nobody died).
func driveBatteryTraffic(seed int64, count int, bank *battery.Bank) (*Machine, []arrival, sim.Time) {
	g := geom.NewSquareGrid(8, 8)
	vm := NewMachine(MustHierarchy(g), sim.New(), cost.NewLedger(cost.NewUniform(), g.N()))
	vm.SetReliability(fault.DefaultReliability())
	k := vm.Kernel()
	firstDeath := sim.Time(1<<62 - 1)
	if bank != nil {
		vm.Ledger().SetMeter(bank)
		died := false
		bank.OnDeplete(func(node int) {
			if !died {
				died = true
				firstDeath = k.Now()
			}
			vm.Kill(node)
		})
	}
	var got []arrival
	vm.SetReceiver(func(to int, m Message) {
		got = append(got, arrival{to: g.CoordOf(to), from: m.From, at: k.Now()})
	})
	rng := rand.New(rand.NewSource(seed))
	vm.SetChannel(fault.NewBernoulli(0.1, rand.New(rand.NewSource(seed*7+1))))
	for i := 0; i < count; i++ {
		from := g.Coords()[rng.Intn(g.N())]
		to := g.Coords()[rng.Intn(g.N())]
		size := 1 + rng.Int63n(4)
		k.At(sim.Time(rng.Intn(64)), func() { vm.Send(from, to, size, nil) })
	}
	k.Run()
	return vm, got, firstDeath
}

// TestQuickInfiniteBudgetIsIdentity: a bank of Unlimited capacities meters
// every charge yet changes nothing — per-node energies, delivery stats, and
// the full arrival sequence match the meterless run exactly.
func TestQuickInfiniteBudgetIsIdentity(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		count := int(n%48) + 8
		bare, bareGot, _ := driveBatteryTraffic(seed, count, nil)
		bank := battery.Uniform(64, battery.Unlimited)
		metered, metGot, firstDeath := driveBatteryTraffic(seed, count, bank)
		if bank.Deaths() != 0 || firstDeath != sim.Time(1<<62-1) {
			return false
		}
		if len(bareGot) != len(metGot) {
			return false
		}
		for i := range bareGot {
			if bareGot[i] != metGot[i] {
				return false
			}
		}
		bs, ms := bare.FaultStats(), metered.FaultStats()
		if bs != ms {
			return false
		}
		for i := 0; i < 64; i++ {
			if bare.Ledger().Energy(i) != metered.Ledger().Energy(i) {
				return false
			}
			if metered.Ledger().Energy(i) != bank.Drained(i) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickDeathMonotoneInBudget: shrinking a uniform budget never delays
// the first depletion — the trajectory is identical up to the smaller
// budget's crossing point, so the death can only move earlier.
func TestQuickDeathMonotoneInBudget(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		count := int(n%48) + 16
		prev := sim.Time(1<<62 - 1)
		for _, budget := range []cost.Energy{40, 20, 10, 5} {
			bank := battery.Uniform(64, budget)
			_, _, firstDeath := driveBatteryTraffic(seed, count, bank)
			if firstDeath > prev {
				return false
			}
			prev = firstDeath
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickDeadNeverCharged: under loss, retries, and depletions, the
// ledger and the bank agree to the unit on every node at the end of the
// run — every charge passed the meter, every post-death charge was vetoed
// and landed nowhere, and only depleted nodes ever exceed their budget.
func TestQuickDeadNeverCharged(t *testing.T) {
	prop := func(seed int64, n, budgetByte uint8) bool {
		count := int(n%48) + 16
		budget := cost.Energy(budgetByte%30) + 4
		bank := battery.Uniform(64, budget)
		vm, _, _ := driveBatteryTraffic(seed, count, bank)
		deaths := 0
		for i := 0; i < 64; i++ {
			if vm.Ledger().Energy(i) != bank.Drained(i) {
				return false
			}
			if bank.Depleted(i) {
				deaths++
				if bank.Drained(i) <= budget {
					return false // died without crossing the budget
				}
			} else if bank.Drained(i) > budget {
				return false // crossed the budget without dying
			}
		}
		return deaths == bank.Deaths()
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
