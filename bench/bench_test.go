package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks the
// program against.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// smokeOps is each workload's op count in the smoke test.
var smokeOps = map[string]int{"serve-hot": 40, "serve-cold": 21, "paper-stack": 3, "flood-scale": 1}

// runSmoke runs one workload at a fixed op count and returns the digest
// line and the parsed result object.
func runSmoke(t *testing.T, name string, traced bool) (digest string, res result) {
	t.Helper()
	var wl workload
	for _, w := range workloads {
		if w.name == name {
			wl = w
		}
	}
	n := smokeOps[name]
	r, err := execute(wl, opts{workload: name, seed: 3, traced: traced, minOps: n, maxOps: n, setupReps: 1})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var out bytes.Buffer
	if code := report(&out, r); code != 0 {
		t.Fatalf("%s traced=%v: exit %d, problems %v\n%s", name, traced, code, r.problems, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", name, err)
	}
	for _, l := range lines {
		if d, ok := strings.CutPrefix(l, name+" outputs_sha256 "); ok {
			digest = d
		}
	}
	return digest, res
}

func TestWorkloadsSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			plain, res := runSmoke(t, w.Name, false)
			if !res.Correct || res.Failed != 0 || res.Attempted != smokeOps[w.Name] {
				t.Fatalf("untraced: %+v", res)
			}
			for _, m := range bf.EndToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || !(v.Value > 0) {
					t.Errorf("end-to-end metric %s: got %+v, want a positive value in %s", m.Name, v, m.Unit)
				}
			}
			traced, tres := runSmoke(t, w.Name, true)
			if !tres.Correct || tres.Failed != 0 {
				t.Fatalf("traced: %+v", tres)
			}
			for _, m := range bf.PerLayer {
				if v, ok := tres.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v, want unit %s", m.Name, v, m.Unit)
				}
			}
			if len(tres.Metrics) != len(bf.PerLayer) {
				t.Errorf("traced run printed %d metrics, BENCHMARK.json lists %d", len(tres.Metrics), len(bf.PerLayer))
			}
			if plain == "" || plain != traced {
				t.Errorf("outputs_sha256 untraced %q, traced %q", plain, traced)
			}
		})
	}
}

func TestProgramMetricsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if d.name != listed[i].Name || d.unit != listed[i].Unit {
				t.Errorf("%s %d: program %s/%s, BENCHMARK.json %s/%s", kind, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a: counted once
		{Name: "c", Parent: 0, Start: 90, End: 120}, // clipped to the parent
		{Name: "d", Parent: 1, Start: 12, End: 18},  // grandchild: only a loses it
		{Name: "e", Parent: -1, Start: 200, End: 210},
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	st := summarize(spans)
	if math.Abs(st.wall-110e-9) > 1e-15 {
		t.Errorf("wall %g, want 110ns", st.wall)
	}
	m := map[string]float64{}
	spanMetrics(st, m)
	if got := m["op.share"]; math.Abs(got-50.0/110) > 1e-9 {
		t.Errorf("op.share %g, want %g", got, 50.0/110)
	}
	if got := m["op.p50_ms"]; math.Abs(got-100e-6) > 1e-12 {
		t.Errorf("op.p50_ms %g, want 100ns in ms", got)
	}
	if _, ok := m["deploy.build_seq.p50_ms"]; ok {
		t.Errorf("a span that never ran got a quantile")
	}
}

func TestLatencyQuantilesWithinBucketWidth(t *testing.T) {
	s := opStream(1, 0)
	var h latencies
	var xs []float64
	for i := 0; i < 20000; i++ {
		x := 1e-5 * math.Exp(6*s.float()) // 10 µs .. 4 ms, log-uniform
		h.add(x)
		xs = append(xs, x)
	}
	for _, p := range []float64{0.01, 0.5, 0.9, 0.99} {
		exact, got := percentile(xs, p), h.quantile(p)
		if math.Abs(got/exact-1) > 0.002 {
			t.Errorf("p%g: histogram %g, exact %g", 100*p, got, exact)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		b           []float64
		lowerBetter bool
		want        string
	}{
		{[]float64{100, 101, 99, 100, 100}, true, "within"},
		{[]float64{120, 121, 119, 120, 122}, true, "worse"},
		{[]float64{120, 121, 119, 120, 122}, false, "better"},
		{[]float64{50, 150, 80, 130, 100}, true, "unresolved"},
		{[]float64{60, 90, 70, 95, 65}, true, "better"}, // wide, but every run beats every A run
	} {
		if _, got := verdict(a, tc.b, tc.lowerBetter, 0.1); got != tc.want {
			t.Errorf("verdict(%v, lowerBetter=%v) = %s, want %s", tc.b, tc.lowerBetter, got, tc.want)
		}
	}
}

func TestCompareRefusesDifferentCPUCounts(t *testing.T) {
	a := runSet{headers: []header{{NProc: 2, GOMAXPROCS: 2}}}
	b := runSet{headers: []header{{NProc: 2, GOMAXPROCS: 1}}}
	if code := compareSets(boundsFile{}, a, b, &bytes.Buffer{}); code != 2 {
		t.Errorf("compare across GOMAXPROCS returned %d, want 2", code)
	}
}
