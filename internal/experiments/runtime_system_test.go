package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wsnva/internal/stats"
)

// TestRadioTablesGoldenCSV pins the quick CSV of every table driven by the
// radio medium and its Section 5 protocols (E5, E6, E8, E10, E12, E13,
// E16) byte-for-byte against one golden file, each block headed like
// benchtab -csv prints it. Regenerate with UPDATE_GOLDEN=1 go test
// ./internal/experiments after an intentional change.
func TestRadioTablesGoldenCSV(t *testing.T) {
	var b strings.Builder
	for _, e := range []struct {
		id  string
		run func(Options) *stats.Table
	}{
		{"E5", E5Emulation},
		{"E6", E6Election},
		{"E8", E8Correspondence},
		{"E10", E10Churn},
		{"E12", E12TreeTopology},
		{"E13", E13LossyEmulation},
		{"E16", E16WholeApp},
	} {
		b.WriteString("# " + e.id + "\n" + e.run(Options{Quick: true}).CSV() + "\n")
	}
	got := b.String()
	path := filepath.Join("testdata", "radio_quick.golden.csv")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("radio-driven quick CSVs drifted from golden file %s\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}
