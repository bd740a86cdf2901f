// Command benchtab regenerates every experiment table of the reproduction
// (E1–E26 plus the A-series ablations) and prints them in order. Run with
// -quick for trimmed sweeps, -csv for machine-readable stdout, -out to also
// write one CSV file per experiment, -only to select experiments by ID, or
// -parallel to bound the worker pool.
//
// Usage:
//
//	benchtab [-quick] [-csv] [-out results/] [-only E3,E5] [-parallel N] [-shards N]
//
// Parallelism never changes the output: tables are assembled in submission
// order, and every trial derives its seed from (experiment, side, trial), so
// -parallel 1 and -parallel 32 emit byte-identical tables.
//
// Performance is measured elsewhere: bench/ (bash bench/run.sh) for end-to-end
// and per-layer numbers, and the root go test -bench for per-experiment
// ns/op and allocs/op.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"wsnva/internal/experiments"
	"wsnva/internal/parallel"
	"wsnva/internal/stats"
)

func main() {
	quick := flag.Bool("quick", false, "trim sweep ranges for a fast pass")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	out := flag.String("out", "", "directory to also write one <ID>.csv file per experiment")
	only := flag.String("only", "", "comma-separated experiment IDs to run (e.g. E3,E8); empty runs all")
	nworkers := flag.Int("parallel", 0, "worker pool size; 0 means GOMAXPROCS, 1 forces sequential")
	shards := flag.Int("shards", 0, "shard count for the E21/E22 scaling sweeps; 0 runs their default (shards, workers) ladder")
	flag.Parse()

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
	}

	pool := parallel.New(*nworkers)
	opt := experiments.Options{Quick: *quick, Pool: pool, Shards: *shards}
	all := []struct {
		id  string
		run func(experiments.Options) *stats.Table
	}{
		{"E1", experiments.E1Mapping},
		{"E2", experiments.E2Steps},
		{"E3", experiments.E3DCvsCentral},
		{"E4", experiments.E4Balance},
		{"E5", experiments.E5Emulation},
		{"E6", experiments.E6Election},
		{"E7", experiments.E7Loss},
		{"E8", experiments.E8Correspondence},
		{"E9", experiments.E9Collectives},
		{"E10", experiments.E10Churn},
		{"E11", experiments.E11SyncSteps},
		{"E12", experiments.E12TreeTopology},
		{"E13", experiments.E13LossyEmulation},
		{"E14", experiments.E14AlarmApp},
		{"E15", experiments.E15Lifetime},
		{"E16", experiments.E16WholeApp},
		{"E17", experiments.E17FailureSweep},
		{"E18", experiments.E18ReliableDelivery},
		{"E19", experiments.E19NetworkLifetime},
		{"E20", experiments.E20DepletionARQ},
		{"E21", experiments.E21ShardScaling},
		{"E22", experiments.E22HazardScaling},
		{"E23", experiments.E23ChurnRepair},
		{"E24", experiments.E24ChurnShardScaling},
		{"E26", experiments.E26DeployGeneration},
		{"A1", experiments.A1MappingAblation},
		{"A2", experiments.A2FieldShapes},
		{"A3", experiments.A3CostSensitivity},
	}

	selected := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			selected[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	picked := all[:0:0]
	for _, e := range all {
		if len(selected) > 0 && !selected[e.id] {
			continue
		}
		picked = append(picked, e)
	}
	if len(picked) == 0 {
		fmt.Fprintf(os.Stderr, "benchtab: no experiment matched -only=%s\n", *only)
		os.Exit(1)
	}

	// Whole experiments fan out across the same pool as their inner
	// trials; Map collects in submission order so stdout is stable.
	tables := parallel.Map(pool, len(picked), func(i int) *stats.Table {
		return picked[i].run(opt)
	})

	for i, e := range picked {
		tab := tables[i]
		if *csv {
			fmt.Printf("# %s\n%s\n", e.id, tab.CSV())
		} else {
			fmt.Println(tab.String())
		}
		if *out != "" {
			path := filepath.Join(*out, e.id+".csv")
			if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
				os.Exit(1)
			}
		}
	}
}
