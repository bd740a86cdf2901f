package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// stream is a splitmix64 generator. Op i of a run draws every input from
// opStream(seed, i), so an op's inputs depend on (seed, i) alone — not on
// how many ops ran before it or on which client ran it.
type stream uint64

func opStream(seed int64, i int) *stream {
	s := stream(uint64(seed)*0xbf58476d1ce4e5b9 ^ uint64(i)*0x9e3779b97f4a7c15)
	s.next()
	return &s
}

func (s *stream) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (s *stream) float() float64 { return float64(s.next()>>11) / (1 << 53) }

func (s *stream) intn(n int) int { return int(s.next() % uint64(n)) }

// seed63 returns a positive 40-bit mission seed: wide enough that the
// missions of one run never collide, short enough to keep specs small.
func (s *stream) seed63() int64 { return int64(s.next()>>24) + 1 }

// warmSeed seeds the warm-up ops of every set-up: set-up does the same
// work whatever --seed is, so setup_s does not vary with the seed.
const warmSeed = 0

// loop is one closed-loop phase: its op latencies and the wall time from
// the first op's start to the last op's end.
type loop struct {
	lat       *latencies
	wall      float64 // seconds
	attempted int
	failed    int
}

func (l loop) throughput() float64 { return float64(l.lat.n) / l.wall }

// latencies is a histogram of op latencies in log-spaced buckets 0.1%
// wide. Its size is fixed, so the benchmark's own memory — part of
// peak_rss_mb — does not grow with the number of ops, and a quantile read
// from it lies within 0.1% of the exact sample quantile.
type latencies struct {
	n      int
	counts [latBuckets]uint32
}

const (
	latMin     = 1e-7 // seconds; bucket 0 holds everything below
	latGrowth  = 1.001
	latBuckets = 23100 // up to latMin·latGrowth^latBuckets ≈ 1000 s
)

func (h *latencies) add(seconds float64) {
	k := 0
	if seconds > latMin {
		k = min(int(math.Log(seconds/latMin)/math.Log(latGrowth)), latBuckets-1)
	}
	h.counts[k]++
	h.n++
}

// quantile returns the p-th quantile (0..1), ranking samples like
// percentile and spreading each bucket's samples evenly across it.
func (h *latencies) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := p * float64(h.n-1)
	cum := 0
	for k, c := range h.counts {
		if c > 0 && float64(cum+int(c)) > rank {
			return latMin * math.Pow(latGrowth, float64(k)+(rank-float64(cum)+0.5)/float64(c))
		}
		cum += int(c)
	}
	return latMin * math.Pow(latGrowth, latBuckets)
}

// closedLoop runs ops 0, 1, 2, ... on `clients` goroutines. Each client
// starts its next op only when its previous one has returned. A client
// stops at the first op index at or past maxOps (0 = no cap), or once d
// has elapsed and the index is at or past minOps — so ops below minOps
// always run, whatever the clock says.
func closedLoop(clients int, d time.Duration, minOps, maxOps int, do func(client, i int) error) loop {
	var (
		next   atomic.Int64
		mu     sync.Mutex
		l      = loop{lat: new(latencies)}
		wg     sync.WaitGroup
		shown  int
		lastAt time.Time
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if (maxOps > 0 && i >= maxOps) || (i >= minOps && time.Since(start) >= d) {
					return
				}
				t0 := time.Now()
				err := do(c, i)
				t1 := time.Now()
				mu.Lock()
				l.attempted++
				if err != nil {
					l.failed++
					if shown < 5 {
						shown++
						fmt.Fprintf(os.Stderr, "bench: op %d failed: %v\n", i, err)
					}
				}
				l.lat.add(t1.Sub(t0).Seconds())
				if t1.After(lastAt) {
					lastAt = t1
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	l.wall = lastAt.Sub(start).Seconds()
	return l
}

// percentile returns the p-th quantile (0..1) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// repeatSetup builds the system under test reps times, each after a GC,
// and returns the last instance plus the median set-up time in seconds.
// Earlier instances are torn down before the next one is built.
func repeatSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		cur   T
		have  bool
		times []float64
	)
	for r := 0; r < reps; r++ {
		if have {
			teardown(cur)
			have = false
		}
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return cur, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		cur, have = v, true
	}
	return cur, percentile(times, 0.5), nil
}

// peakRSSMB reports the process's resident-set high-water mark (the
// kernel's VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Spans of one op share Op; Parent is the
// index of the span that caused this one, -1 for an op's root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs execute the same code with tracing off.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its index (-1 when t is nil).
func (t *tracer) begin(name string, op int, parent int32) int32 {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// interval records a span whose bounds were observed rather than
// bracketed, such as a mission's wait in the scheduler queue.
func (t *tracer) interval(name string, op int, parent int32, from, to time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: from.Sub(t.t0).Nanoseconds(), End: to.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its children cover. Children are clipped to the parent's
// interval and overlapping children count once.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := kids[int32(i)]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, reach := int64(0), s.Start
		for _, iv := range ivs {
			lo, hi := max(iv[0], reach), min(iv[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerStats summarizes spans by name.
type layerStats struct {
	dur  map[string][]float64 // seconds, every span of the name
	self map[string]float64   // seconds, summed self time
	wall float64              // seconds, summed duration of root spans
}

func summarize(spans []span) layerStats {
	st := layerStats{dur: map[string][]float64{}, self: map[string]float64{}}
	for i, sf := range selfTimes(spans) {
		s := spans[i]
		d := float64(s.End-s.Start) / 1e9
		st.dur[s.Name] = append(st.dur[s.Name], d)
		st.self[s.Name] += float64(sf) / 1e9
		if s.Parent < 0 {
			st.wall += d
		}
	}
	return st
}

// spanMetrics fills the per-layer metrics the spans give directly: each
// "<span>.p50_<unit>" and "<span>.p99_<unit>" quantile of the span's
// durations, and each span's "<span>.share", its summed self time over
// the summed duration of the op spans.
func spanMetrics(st layerStats, out map[string]float64) {
	scale := map[string]float64{"ms": 1e3, "us": 1e6}
	for _, d := range perLayer {
		k := strings.LastIndex(d.name, ".p")
		if k < 0 {
			continue
		}
		name, q := d.name[:k], d.name[k+2:]
		p := 0.0
		switch {
		case strings.HasPrefix(q, "50_"):
			p = 0.5
		case strings.HasPrefix(q, "99_"):
			p = 0.99
		default:
			continue
		}
		if durs := st.dur[name]; len(durs) > 0 {
			out[d.name] = percentile(durs, p) * scale[d.unit]
		}
	}
	for name, s := range st.self {
		if st.wall > 0 {
			out[name+".share"] = s / st.wall
		}
	}
}
