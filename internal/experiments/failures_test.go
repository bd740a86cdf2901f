package experiments

import (
	"testing"

	"wsnva/internal/fault"
	"wsnva/internal/synth"
)

// TestE17GoldenCSV pins the failure sweep byte-for-byte against its block
// of the quick-tables golden: crash schedules, watchdog timing, and energy
// accounting are all pure functions of the seeds, so the quick table must
// never drift.
func TestE17GoldenCSV(t *testing.T) { checkQuickGolden(t, "E17") }

// TestE17CoverageMonotone checks the sweep's headline property directly on
// the driver: because crash sets are nested (a higher fraction only adds
// victims), exfiltrated coverage is non-increasing in the crash fraction.
func TestE17CoverageMonotone(t *testing.T) {
	prev := 2.0
	for _, frac := range []float64{0, 0.05, 0.1, 0.2, 0.3} {
		res, _ := faultRound(8, 7, synth.FaultConfig{
			Schedule: fault.MustRandom(64, frac, crashWindow, 1008),
		}, nil)
		if res.Final == nil {
			t.Fatalf("frac %v: stalled", frac)
		}
		if res.Coverage > prev {
			t.Errorf("coverage rose from %v to %v at frac %v", prev, res.Coverage, frac)
		}
		prev = res.Coverage
	}
}

// TestE18ARQNeverWorseDelivery: at every loss point of the E18 sweep, the
// ARQ's delivered count is at least the best-effort one — retransmission
// can only add delivery opportunities.
func TestE18ARQNeverWorseDelivery(t *testing.T) {
	for _, loss := range []float64{0, 0.05, 0.1, 0.2} {
		run := func(rel fault.Reliability) int64 {
			res, _ := faultRound(8, 7, synth.FaultConfig{
				Schedule:    fault.MustRandom(64, 0.1, crashWindow, 1008),
				Channel:     bernoulli(loss, 41),
				Reliability: rel,
			}, nil)
			return res.Stats.Delivered
		}
		plain, reliable := run(fault.Reliability{}), run(fault.DefaultReliability())
		if reliable < plain {
			t.Errorf("loss %v: ARQ delivered %d < best-effort %d", loss, reliable, plain)
		}
	}
}
