package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestE23GoldenCSV pins the churn repair sweep byte-for-byte against its
// block of the quick-tables golden: disturbance schedules, repair traffic,
// and re-convergence latencies are pure functions of the seeds.
func TestE23GoldenCSV(t *testing.T) { checkQuickGolden(t, "E23") }

// TestE23Recovered checks the sweep's headline property directly: the
// recovery predicate holds and the final round covers the full grid at
// every churn rate in the quick sweep.
func TestE23Recovered(t *testing.T) {
	tab := E23ChurnRepair(Options{Quick: true})
	out := tab.String()
	if strings.Contains(out, "false") {
		t.Errorf("a churn mission failed to recover or to cover the grid:\n%s", out)
	}
}

// TestE23ProportionalRepair pins the tentpole's cost claim on the full
// sweep: quadrupling the network (side 4 → side 8, same density) must
// not quadruple the per-flip repair cost — repair traffic tracks the
// disturbance, not the network. The bound of 2 is loose (observed ~1.2×,
// from the extra teachers a denser neighborhood contributes) but rules
// out any repair that re-floods the whole grid.
func TestE23ProportionalRepair(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	tab := E23ChurnRepair(Options{})
	perFlip := map[string]float64{}
	for _, row := range tab.Rows() {
		if row[2] != "0.200" {
			continue
		}
		v, err := strconv.ParseFloat(row[7], 64)
		if err != nil {
			t.Fatalf("msgs/flip cell %q: %v", row[7], err)
		}
		perFlip[row[0]] = v
	}
	small, large := perFlip["4"], perFlip["8"]
	if small <= 0 || large <= 0 {
		t.Fatalf("missing rate-0.2 rows: %v", perFlip)
	}
	if large > 2*small {
		t.Errorf("per-flip repair cost scaled with network size: side 4 = %.2f, side 8 = %.2f", small, large)
	}
}
