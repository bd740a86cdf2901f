package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// boundsFile is the part of BENCHMARK.json that --compare applies.
type boundsFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSet is the untraced runs of one output file: metric values per
// workload, and every header seen.
type runSet struct {
	values  map[string]map[string][]float64
	headers []header
}

// readRuns parses the concatenated standard output of benchmark runs:
// each "header {...}" line opens a run and the run's result object
// follows it. Traced runs are skipped.
func readRuns(path string) (runSet, error) {
	set := runSet{values: map[string]map[string][]float64{}}
	f, err := os.Open(path)
	if err != nil {
		return set, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var cur *header
	for sc.Scan() {
		line := sc.Text()
		if h, ok := strings.CutPrefix(line, "header "); ok {
			var hd header
			if err := json.Unmarshal([]byte(h), &hd); err != nil {
				return set, fmt.Errorf("%s: bad header: %w", path, err)
			}
			set.headers = append(set.headers, hd)
			cur = &set.headers[len(set.headers)-1]
			continue
		}
		if !strings.HasPrefix(line, "{") || cur == nil || cur.Trace != 0 {
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			return set, fmt.Errorf("%s: bad result line: %w", path, err)
		}
		if !res.Correct {
			return set, fmt.Errorf("%s: a %s run is not correct", path, cur.Workload)
		}
		byMetric := set.values[cur.Workload]
		if byMetric == nil {
			byMetric = map[string][]float64{}
			set.values[cur.Workload] = byMetric
		}
		for name, v := range res.Metrics {
			byMetric[name] = append(byMetric[name], v.Value)
		}
		cur = nil
	}
	return set, sc.Err()
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) computes them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	ld, m := len(s), len(s)+1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// verdict compares run sets a (before) and b (after) of one metric. A
// spread (quartile distance over median) wider than the bound leaves the
// pair unresolved unless every b run beats every a run.
func verdict(a, b []float64, lowerBetter bool, bound float64) (change float64, v string) {
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	change = (bm - am) / am
	worse := change
	if !lowerBetter {
		worse = -change
	}
	beats := func(x, y float64) bool { return (lowerBetter && x < y) || (!lowerBetter && x > y) }
	if (aq3-aq1)/am > bound || (bq3-bq1)/bm > bound {
		bWorst, aBest := b[0], a[0]
		for _, x := range b {
			if beats(bWorst, x) {
				bWorst = x
			}
		}
		for _, x := range a {
			if beats(x, aBest) {
				aBest = x
			}
		}
		if beats(bWorst, aBest) {
			return change, "better"
		}
		return change, "unresolved"
	}
	switch {
	case worse > bound:
		return change, "worse"
	case worse < -bound:
		return change, "better"
	}
	return change, "within"
}

// compareRuns prints one row per (workload, end-to-end metric) found in
// both files. It returns 1 if any pair got worse, 2 if the runs cannot be
// compared.
func compareRuns(boundsPath, aPath, bPath string, w io.Writer) int {
	raw, err := os.ReadFile(boundsPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	var bf boundsFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", boundsPath, err)
		return 2
	}
	a, err := readRuns(aPath)
	if err == nil {
		var b runSet
		b, err = readRuns(bPath)
		if err == nil {
			return compareSets(bf, a, b, w)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 2
}

func compareSets(bf boundsFile, a, b runSet, w io.Writer) int {
	all := append(append([]header(nil), a.headers...), b.headers...)
	for _, h := range all {
		if h.NProc != all[0].NProc || h.GOMAXPROCS != all[0].GOMAXPROCS {
			fmt.Fprintf(os.Stderr, "bench: refusing to compare runs measured at nproc/GOMAXPROCS %d/%d and %d/%d\n",
				all[0].NProc, all[0].GOMAXPROCS, h.NProc, h.GOMAXPROCS)
			return 2
		}
	}
	var names []string
	for wl := range a.values {
		if b.values[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	code := 0
	fmt.Fprintf(w, "%-12s %-17s %12s %12s %8s  %s\n", "workload", "metric", "median A", "median B", "change", "verdict")
	for _, wl := range names {
		for _, m := range bf.EndToEnd {
			av, bv := a.values[wl][m.Name], b.values[wl][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			change, v := verdict(av, bv, m.Better == "lower", m.Bound)
			if v == "worse" {
				code = 1
			}
			_, am, _ := quartiles(av)
			_, bm, _ := quartiles(bv)
			fmt.Fprintf(w, "%-12s %-17s %12.4g %12.4g %+7.1f%%  %s\n", wl, m.Name, am, bm, 100*change, v)
		}
	}
	return code
}
