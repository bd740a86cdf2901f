// Command benchtab regenerates every experiment table of the reproduction
// (experiments.All: E1–E24, E26 and the A-series ablations) and prints
// them in order. Run with -quick for trimmed sweeps, -csv for
// machine-readable stdout, -out to also write one CSV file per experiment
// plus report.md, -only to select experiments by ID, or -parallel to bound
// the worker pool.
//
// Usage:
//
//	benchtab [-quick] [-csv] [-out results/] [-only E3,E5] [-parallel N]
//
// Every table is a pure function of its seeds, and parallelism never
// changes the output: tables are assembled in submission order, and every
// trial derives its seed from (experiment, side, trial), so -parallel 1
// and -parallel 32 emit byte-identical tables.
//
// Performance is measured elsewhere: bench/ (bash bench/run.sh) for
// end-to-end and per-layer numbers, and go test -bench Tables at the repo
// root for per-experiment ns/op and allocs/op.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"wsnva/internal/experiments"
	"wsnva/internal/parallel"
	"wsnva/internal/stats"
)

func main() {
	quick := flag.Bool("quick", false, "trim sweep ranges for a fast pass")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	out := flag.String("out", "", "directory to also write one <ID>.csv file per experiment and report.md")
	only := flag.String("only", "", "comma-separated experiment IDs to run (e.g. E3,E8); empty runs all")
	nworkers := flag.Int("parallel", 0, "worker pool size; 0 means GOMAXPROCS, 1 forces sequential")
	flag.Parse()

	picked, err := pick(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		os.Exit(1)
	}

	// Whole experiments fan out across the same pool as their inner
	// trials; Map collects in submission order so stdout is stable.
	pool := parallel.New(*nworkers)
	opt := experiments.Options{Quick: *quick, Pool: pool}
	tables := parallel.Map(pool, len(picked), func(i int) *stats.Table {
		return picked[i].Run(opt)
	})

	for i, e := range picked {
		if *csv {
			fmt.Printf("# %s\n%s\n", e.ID, tables[i].CSV())
		} else {
			fmt.Println(tables[i].String())
		}
	}
	if *out != "" {
		if err := write(*out, picked, tables, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
	}
}

// pick resolves a comma-separated -only list against experiments.All,
// ignoring case and spaces and keeping All's order. An empty list picks
// every experiment; an ID that names none, the empty one included, is an
// error.
func pick(only string) ([]experiments.Experiment, error) {
	if only == "" {
		return experiments.All, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if !slices.ContainsFunc(experiments.All, func(e experiments.Experiment) bool { return e.ID == id }) {
			return nil, fmt.Errorf("-only: unknown experiment %q", id)
		}
		want[id] = true
	}
	var picked []experiments.Experiment
	for _, e := range experiments.All {
		if want[e.ID] {
			picked = append(picked, e)
		}
	}
	return picked, nil
}

// write stores each table as dir/<ID>.csv and all of them, one section per
// experiment headed by its claim, as dir/report.md.
func write(dir string, picked []experiments.Experiment, tables []*stats.Table, quick bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("# Reproduction results\n\nWritten by `benchtab -out`")
	if quick {
		b.WriteString(" with -quick")
	}
	b.WriteString(". Every table is a pure function of its seeds; see\nEXPERIMENTS.md for the paper-claim-by-claim commentary.\n")
	for i, e := range picked {
		if err := os.WriteFile(filepath.Join(dir, e.ID+".csv"), []byte(tables[i].CSV()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(&b, "\n## %s — %s\n\n```\n%s```\n", e.ID, e.Claim, tables[i].String())
	}
	return os.WriteFile(filepath.Join(dir, "report.md"), []byte(b.String()), 0o644)
}
