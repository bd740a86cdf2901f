package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"wsnva/internal/parallel"
)

// e7Golden is the committed quick E7 table.
var e7Golden = filepath.Join("testdata", "e7_quick.golden.csv")

// TestE7GoldenCSV pins the goroutine runtime's loss sweep byte-for-byte
// against a committed golden file: every loss draw comes from its
// sender's own seeded stream, consumed in that sender's own order, so the
// quick table is a pure function of the seeds. Regenerate deliberately
// with UPDATE_GOLDEN=1 go test ./internal/experiments after an
// intentional behavior change.
func TestE7GoldenCSV(t *testing.T) {
	got := E7Loss(Options{Quick: true}).CSV()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(e7Golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	checkE7Golden(t, got)
}

// TestE7SchedulerIndependent rebuilds quick E7 on a 4-worker pool at
// GOMAXPROCS 1, 2 and 8: however the Go scheduler interleaves the
// goroutine-per-node rounds, every table must equal the golden.
func TestE7SchedulerIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			checkE7Golden(t, E7Loss(Options{Quick: true, Pool: parallel.New(4)}).CSV())
		})
	}
}

func checkE7Golden(t *testing.T, got string) {
	t.Helper()
	want, err := os.ReadFile(e7Golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("E7 quick CSV drifted from golden file %s\n--- got ---\n%s--- want ---\n%s",
			e7Golden, got, want)
	}
}
