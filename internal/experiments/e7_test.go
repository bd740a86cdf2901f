package experiments

import (
	"fmt"
	"runtime"
	"testing"

	"wsnva/internal/parallel"
)

// TestE7GoldenCSV pins the goroutine runtime's loss sweep byte-for-byte
// against its block of the quick-tables golden: every loss draw comes from
// its sender's own seeded stream, consumed in that sender's own order, so
// the quick table is a pure function of the seeds.
func TestE7GoldenCSV(t *testing.T) { checkQuickGolden(t, "E7") }

// TestE7SchedulerIndependent rebuilds quick E7 on a 4-worker pool at
// GOMAXPROCS 1, 2 and 8: however the Go scheduler interleaves the
// goroutine-per-node rounds, every table must equal E7's block of the
// quick-tables golden.
func TestE7SchedulerIndependent(t *testing.T) {
	want := goldenBlock(readTablesGolden(t), "E7")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			if got := E7Loss(Options{Quick: true, Pool: parallel.New(4)}).CSV(); got != want {
				t.Fatalf("E7 quick CSV drifted from %s\n--- got ---\n%s--- want ---\n%s", tablesGolden, got, want)
			}
		})
	}
}
