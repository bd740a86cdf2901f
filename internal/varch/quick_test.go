package varch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wsnva/internal/cost"
	"wsnva/internal/fault"
	"wsnva/internal/geom"
	"wsnva/internal/sim"
)

// Property-based checks (testing/quick) for the two fault-layer laws the
// issue pins down: the ARQ is an identity on a healthy network, and death
// is final — no schedule of crashes and traffic ever lands an event on a
// dead node.

// arrival is one observed delivery: where, from whom, and when.
type arrival struct {
	to, from geom.Coord
	at       sim.Time
}

// driveRandomTraffic fires count random sends at random times over an 8x8
// machine, derived entirely from seed, and returns every delivery observed.
// rel arms the ARQ (zero value: plain best-effort).
func driveRandomTraffic(seed int64, count int, rel fault.Reliability) ([]arrival, FaultStats) {
	g := geom.NewSquareGrid(8, 8)
	vm := NewMachine(MustHierarchy(g), sim.New(), cost.NewLedger(cost.NewUniform(), g.N()))
	vm.SetReliability(rel)
	k := vm.Kernel()
	var got []arrival
	vm.SetReceiver(func(to int, m Message) {
		got = append(got, arrival{to: g.CoordOf(to), from: m.From, at: k.Now()})
	})
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < count; i++ {
		from := g.Coords()[rng.Intn(g.N())]
		to := g.Coords()[rng.Intn(g.N())]
		size := 1 + rng.Int63n(4)
		k.At(sim.Time(rng.Intn(64)), func() { vm.Send(from, to, size, nil) })
	}
	k.Run()
	return got, vm.FaultStats()
}

// TestQuickHealthyARQIsIdentity: with zero loss and no crashes, arming the
// reliability layer must not change what is delivered, to whom, or when —
// and it must never retransmit. (The ack timeout is sized above the longest
// route's latency, as any sane deployment would; an ARQ whose timeout is
// shorter than the RTT retransmits spuriously by design.)
func TestQuickHealthyARQIsIdentity(t *testing.T) {
	rel := fault.Reliability{MaxRetries: 3, Timeout: 256, MaxBackoff: 1024, AckSize: 1}
	prop := func(seed int64, n uint8) bool {
		count := int(n%32) + 1
		plain, pstats := driveRandomTraffic(seed, count, fault.Reliability{})
		reliable, rstats := driveRandomTraffic(seed, count, rel)
		if rstats.Retransmissions != 0 || rstats.Lost != 0 || rstats.DeadDrops != 0 {
			return false
		}
		if pstats.Delivered != rstats.Delivered || len(plain) != len(reliable) {
			return false
		}
		for i := range plain {
			if plain[i] != reliable[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickDeathIsFinal: for arbitrary crash schedules and arbitrary
// traffic (with loss and ARQ armed, the paths that reschedule events), no
// handler ever runs at a node at or after its crash time.
func TestQuickDeathIsFinal(t *testing.T) {
	prop := func(seed int64, fracByte, volume uint8) bool {
		g := geom.NewSquareGrid(8, 8)
		vm := NewMachine(MustHierarchy(g), sim.New(), cost.NewLedger(cost.NewUniform(), g.N()))
		k := vm.Kernel()
		frac := float64(fracByte%100) / 100
		sched := fault.MustRandom(g.N(), frac, 50, seed)
		deadAt := make(map[int]sim.Time, len(sched))
		for _, c := range sched {
			deadAt[c.Node] = c.At
		}
		ok := true
		vm.SetReceiver(func(to int, _ Message) {
			if at, dead := deadAt[to]; dead && k.Now() >= at {
				ok = false
			}
		})
		sched.Arm(k, g.N(), vm.Kill)
		rng := rand.New(rand.NewSource(seed))
		vm.SetChannel(fault.NewBernoulli(0.15, rng))
		vm.SetReliability(fault.DefaultReliability())
		for i := 0; i < int(volume%64)+8; i++ {
			from := g.Coords()[rng.Intn(g.N())]
			level := rng.Intn(3) + 1
			at := sim.Time(1 + rng.Intn(60))
			if rng.Intn(2) == 0 {
				to := g.Coords()[rng.Intn(g.N())]
				k.At(at, func() { vm.Send(from, to, 1, nil) })
			} else {
				k.At(at, func() { vm.SendToLeader(from, level, 1, nil) })
			}
		}
		k.Run()
		return ok
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
