// Command bench measures the system end to end and layer by layer on
// four workloads. It drives the program from outside, through its public
// functions and real loopback HTTP, and checks every output it times.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same op
// sequence with spans around each layer call and prints the per-layer
// metrics instead. The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// Compare two sets of runs (each file is the concatenated stdout of runs)
// under the bounds in BENCHMARK.json:
//
//	bash bench/run.sh --compare a.log b.log
//
// See bench/README.md for the workloads and what each metric predicts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every untraced run
// reports all of them. BENCHMARK.json holds their bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. Every traced run prints all of
// them; a layer the workload never calls reads 0.
var perLayer = []metricDef{
	{"op.p50_ms", "ms"},
	{"op.p99_ms", "ms"},

	{"serve.decode.p50_us", "us"},
	{"serve.validate.p50_us", "us"},
	{"serve.digest.p50_us", "us"},
	{"serve.cache_get.p50_us", "us"},
	{"serve.http.p50_us", "us"},
	{"serve.cache.hit_ratio", "ratio"},
	{"serve.body.mean_kb", "kB"},
	{"serve.execute.p50_ms", "ms"},
	{"serve.execute.p99_ms", "ms"},
	{"serve.cache_put.p50_us", "us"},
	{"serve.cache.evictions", "count"},
	{"serve.queue_wait.p99_ms", "ms"},
	{"trace.overhead.p50_ms", "ms"},

	{"deploy.generate.p50_ms", "ms"},
	{"deploy.attempts.mean", "count"},
	{"deploy.validate.p50_ms", "ms"},
	{"deploy.build.p50_ms", "ms"},
	{"deploy.build_seq.p50_ms", "ms"},

	{"shard.run_s1.p50_ms", "ms"},
	{"shard.run_s2.p50_ms", "ms"},
	{"shard.speedup_s2", "ratio"},
	{"shard.deliveries_per_s", "1/s"},

	{"vtopo.setup.p50_ms", "ms"},
	{"vtopo.broadcasts.mean", "count"},
	{"binding.bind.p50_ms", "ms"},
	{"binding.broadcasts.mean", "count"},
	{"emul.label.p50_ms", "ms"},
	{"emul.phys_hops.mean", "count"},
	{"runtime.label.p50_ms", "ms"},
	{"synth.des_label.p50_ms", "ms"},
	{"sim.events.mean", "count"},
	{"lockstep.label.p50_ms", "ms"},
	{"shard.label.p50_ms", "ms"},
	{"regions.truth.p50_us", "us"},
}

// spanNames are the spans any workload records; each gets a
// "<name>.share" per-layer metric.
var spanNames = []string{
	"op", "check",
	"serve.decode", "serve.validate", "serve.digest", "serve.cache_get",
	"serve.run", "serve.queue_wait", "serve.execute", "serve.cache_put", "trace.rerun",
	"deploy.generate", "deploy.build", "deploy.validate", "deploy.build_seq",
	"shard.run_s1", "shard.run_s2",
	"radio.medium", "vtopo.setup", "binding.bind", "app.setup",
	"emul.new", "emul.label", "synth.des_label", "lockstep.label",
	"shard.label", "runtime.label", "regions.truth",
}

func init() {
	for _, n := range spanNames {
		perLayer = append(perLayer, metricDef{n + ".share", "ratio"})
	}
}

// opts are one run's settings.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// minOps overrides the workload's minimum op count (the ops hashed
	// into outputs_sha256); maxOps caps the ops a phase runs (0 = none);
	// setupReps is how many times set-up is repeated for setup_s. The
	// smoke test shrinks all three.
	minOps, maxOps int
	setupReps      int
}

func (o opts) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// run collects one workload run's results.
type run struct {
	opts
	attempted, failed int
	problems          []string // failed post-timing checks
	digest            string
	metrics           map[string]float64
	tr                *tracer // nil on untraced runs
}

func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 5 {
		fmt.Fprintf(os.Stderr, "bench: check failed: %s\n", msg)
	}
	r.problems = append(r.problems, msg)
}

// count adds a measured phase's op tally to the run.
func (r *run) count(l loop) {
	r.attempted += l.attempted
	r.failed += l.failed
}

// minOrDefault returns the run's minimum op count: the override if set,
// else the workload's default.
func (o opts) minOrDefault(def int) int {
	if o.minOps > 0 {
		return o.minOps
	}
	return def
}

// endToEndMetrics fills the metrics every untraced run reports from its
// measured phase.
func (r *run) endToEndMetrics(setup float64, l loop) {
	r.metrics["setup_s"] = setup
	r.metrics["throughput_ops_s"] = l.throughput()
	r.metrics["latency_p50_ms"] = l.lat.quantile(0.5) * 1e3
	r.metrics["latency_p99_ms"] = l.lat.quantile(0.99) * 1e3
	r.metrics["peak_rss_mb"] = peakRSSMB()
}

type workload struct {
	name string
	run  func(r *run) error
}

var workloads = []workload{
	{"serve-hot", runServeHot},
	{"serve-cold", runServeCold},
	{"paper-stack", runPaperStack},
	{"flood-scale", runFloodScale},
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout)) }

func cli(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: serve-hot, serve-cold, paper-stack, flood-scale")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "how long the measured phase runs, in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	cpuDir := fs.String("cpuprofile", "", "write a CPU profile of the run to DIR/<workload>.pprof")
	spansOut := fs.String("spans", "", "traced runs: write the recorded spans as JSON to this file")
	compare := fs.Bool("compare", false, "compare two files of run output under the bounds in ./BENCHMARK.json: --compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: --compare wants two files")
			return 2
		}
		return compareRuns("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout)
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(os.Stderr, "bench: want --workload one of serve-hot, serve-cold, paper-stack, flood-scale and --trace 0|1\n")
		return 2
	}
	o := opts{workload: *name, seed: *seed, seconds: *seconds, traced: *trace == 1, setupReps: 3}

	hdr := header{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: *trace}
	hb, _ := json.Marshal(hdr) // a struct of scalars always marshals
	fmt.Fprintf(stdout, "header %s\n", hb)

	if *cpuDir != "" {
		stop, err := startProfile(*cpuDir, o.workload)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		defer stop()
	}
	r, err := execute(*wl, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	if *spansOut != "" && r.tr != nil {
		if err := writeSpans(*spansOut, r.tr.spans); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	return report(stdout, r)
}

// execute runs one workload and fills the metric set its mode reports.
func execute(wl workload, o opts) (*run, error) {
	r := &run{opts: o, metrics: map[string]float64{}}
	if o.traced {
		r.tr = newTracer()
	}
	if err := wl.run(r); err != nil {
		return nil, err
	}
	if r.tr != nil {
		spanMetrics(summarize(r.tr.spans), r.metrics)
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := r.metrics[d.name]; !ok {
			if !o.traced {
				return nil, fmt.Errorf("workload did not measure %s", d.name)
			}
			r.metrics[d.name] = 0
		}
	}
	return r, nil
}

// header records the conditions of a run; --compare refuses to compare
// runs whose processor counts differ.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints one "workload metric value unit" line per metric, the
// output digest, and the result object as the last line. It returns the
// exit code: 1 when any op or check failed.
func report(w io.Writer, r *run) int {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := r.metrics[d.name]
		res.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(w, "%s %s %g %s\n", r.workload, d.name, v, d.unit)
	}
	fmt.Fprintf(w, "%s outputs_sha256 %s\n", r.workload, r.digest)
	res.Correct = r.failed == 0 && len(r.problems) == 0 && r.attempted > 0
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

func startProfile(dir, workload string) (func(), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, workload+".pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: cpu profile: %v\n", err)
		}
	}, nil
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
