package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"wsnva/internal/parallel"
)

// tablesGolden holds the exact bytes of benchtab -quick -csv: for every
// entry of All, a "# ID" line, the quick table's CSV and a blank line.
var tablesGolden = filepath.Join("testdata", "tables_quick.golden.csv")

// TestQuickTablesGolden pins every quick table byte-for-byte, built
// without a pool in All's order under benchtab's "# ID" headers: each
// table is a pure function of its seeds. Regenerate deliberately with
// UPDATE_GOLDEN=1 go test -run TestQuickTablesGolden ./internal/experiments
// after an intentional behavior change.
func TestQuickTablesGolden(t *testing.T) {
	var b strings.Builder
	for _, e := range All {
		fmt.Fprintf(&b, "# %s\n%s\n", e.ID, e.Run(Options{Quick: true}).CSV())
	}
	got := b.String()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(tablesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readTablesGolden(t)
	if got == want {
		return
	}
	for _, e := range All {
		if g, w := goldenBlock(got, e.ID), goldenBlock(want, e.ID); g != w {
			t.Errorf("quick %s drifted from %s\n--- got ---\n%s--- want ---\n%s", e.ID, tablesGolden, g, w)
		}
	}
	t.Fatalf("quick tables drifted from %s", tablesGolden)
}

// TestParallelTablesByteIdentical pins the engine's central guarantee: the
// worker pool only changes wall time, never output. Every quick table
// built on a 4-worker pool must equal its block of the golden byte-for-byte,
// because rows are collected in submission order and every trial's seed
// derives from its position in the sweep, not from scheduling.
func TestParallelTablesByteIdentical(t *testing.T) {
	want := readTablesGolden(t)
	pool := parallel.New(4)
	for _, e := range All {
		t.Run(e.ID, func(t *testing.T) {
			checkBlock(t, want, e, pool)
		})
	}
}

// TestRadioTablesGoldenCSV pins the quick tables driven by the radio
// medium and its Section 5 protocols against their blocks of the golden,
// so a change to the medium can be checked on its own tables.
func TestRadioTablesGoldenCSV(t *testing.T) {
	checkQuickGolden(t, "E5", "E6", "E8", "E10", "E12", "E13", "E16")
}

// checkQuickGolden builds the named experiments' quick tables without a
// pool and compares each with its block of the golden.
func checkQuickGolden(t *testing.T, ids ...string) {
	t.Helper()
	want := readTablesGolden(t)
	for _, id := range ids {
		i := slices.IndexFunc(All, func(e Experiment) bool { return e.ID == id })
		if i < 0 {
			t.Fatalf("no experiment %s in All", id)
		}
		checkBlock(t, want, All[i], nil)
	}
}

// checkBlock builds e's quick table on pool and compares it with e's
// block of the golden text want.
func checkBlock(t *testing.T, want string, e Experiment, pool *parallel.Pool) {
	t.Helper()
	if got, w := e.Run(Options{Quick: true, Pool: pool}).CSV(), goldenBlock(want, e.ID); got != w {
		t.Errorf("quick %s drifted from %s\n--- got ---\n%s--- want ---\n%s", e.ID, tablesGolden, got, w)
	}
}

func readTablesGolden(t *testing.T) string {
	t.Helper()
	want, err := os.ReadFile(tablesGolden)
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

// goldenBlock returns id's CSV from benchtab -csv output, without its
// "# ID" line.
func goldenBlock(text, id string) string {
	_, rest, ok := strings.Cut(text, "# "+id+"\n")
	if !ok {
		return ""
	}
	csv, _, _ := strings.Cut(rest, "\n\n")
	return csv + "\n"
}
