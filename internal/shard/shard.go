package shard

import (
	"fmt"
	"math"

	"wsnva/internal/churn"
	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/fault"
	"wsnva/internal/parallel"
	"wsnva/internal/sim"
	"wsnva/internal/trace"
)

// Config selects the workload and the execution strategy for a sharded
// run. The zero value (plus a deployment) is a valid single-flood,
// single-shard run. Every run charges the paper's uniform cost model.
type Config struct {
	// Shards is the number of spatial tiles the engine runs on; <= 1
	// means one.
	Shards int
	// Workers bounds the parallel.Pool driving the shards; <= 0 means
	// GOMAXPROCS.
	Workers int

	// Floods is the number of concurrent floods K (default 1, max 64)
	// with origins spread evenly over the ID space; Origins overrides
	// the placement explicitly (its length is then K).
	Floods  int
	Origins []int
	// PktSize is the flooded payload size in data units (default 2,
	// must be positive — zero-size packets have zero latency and would
	// break the conservative lookahead).
	PktSize int64

	// Crashes schedules fail-stop deaths. A crash event fires before any
	// same-instant delivery or wake; the apps' start phase runs before
	// every event, so a node crashing at time 0 has already started (an
	// origin's first broadcast is out).
	Crashes fault.Schedule

	// Churn schedules reversible radio suspensions and resumptions
	// (duty-cycle sleep/wake; departures and arrivals are the same
	// transition held longer). A suspended node neither sends nor
	// receives — deliveries drop with "asleep receiver" — but keeps its
	// state and timers and rejoins silently on resume. Events are
	// pre-scheduled into each victim's owner shard exactly like Crashes,
	// so the same schedule replays identically on every shard count.
	Churn churn.Schedule

	// Loss is the per-delivery Bernoulli drop probability in [0,1),
	// drawn from a counter-keyed per-sender stream (fault.StreamChannel)
	// so the loss pattern is a pure function of (Seed, sender, attempt
	// index) — identical across shard and worker counts.
	Loss float64

	// Burst selects the Gilbert–Elliott bursty channel instead, again
	// counter-keyed per sender. Mutually exclusive with Loss.
	Burst fault.GilbertElliott

	// Seed keys the loss channel's per-sender streams.
	Seed int64

	// Capacity is the per-node energy budget used to fill the result's
	// Battery field after the run (remaining = capacity − spent).
	Capacity cost.Energy

	// Deplete arms battery fail-stop: a node whose cumulative drain
	// crosses Capacity dies at the crossing instant with dying-gasp
	// semantics (it completes every event stamped at that instant and is
	// silent from the next time step). Requires Capacity > 0. Without
	// it, Capacity stays pure accounting.
	Deplete bool

	// Trace enables canonical JSONL trace capture in Result.Trace.
	Trace bool

	// Sink, when set together with Trace, additionally receives every
	// event live as it is emitted. Live order is the engine's emission
	// order — interleaving-dependent on the sharded path — so a sink is
	// for watching a run, not for comparing runs; Result.Trace remains
	// the canonical, order-independent record. Sink must not block (see
	// trace.Sink). Never part of the result, so it cannot affect any
	// digest or checksum.
	Sink trace.Sink
}

// Result is the outcome of a run. Everything in it is a deterministic
// function of the deployment and the workload alone — the same for
// every shard and worker count — which the differential property tests
// enforce against a single-kernel oracle.
type Result struct {
	Nodes  int
	Floods int
	// Origins[j] is flood j's origin node.
	Origins []int
	// Reached[j] counts nodes that received flood j (origin excluded).
	Reached []int64
	// Forwards and Ignored are the dissemination totals across floods:
	// broadcasts performed and duplicate receptions suppressed.
	Forwards int64
	Ignored  int64
	// Radio totals: Sent counts transmissions by live senders, broadcasts
	// and unicasts alike; Delivered counts per-receiver deliveries; and
	// Dropped counts per-receiver drops, from channel losses, dead
	// receivers and asleep receivers.
	Sent      int64
	Delivered int64
	Dropped   int64
	// Completion is the timestamp of the last event fired.
	Completion sim.Time
	// Deaths counts nodes down at the end of the run: fired Crashes
	// entries and battery depletions.
	Deaths int
	// Suspends and Resumes count churn transitions actually applied (a
	// sleep of a dead or sleeping node is a no-op).
	Suspends int64
	Resumes  int64
	// Energy is the per-node energy spend; Total its sum.
	Energy []cost.Energy
	Total  cost.Energy
	// Per-node flood state at the end of the run: the heard bitmask, the
	// number of distinct floods heard, and the first reception time (-1:
	// never reached).
	Heard   []uint64
	Level   []int32
	FirstAt []sim.Time
	// Battery is the remaining budget per node, Config.Capacity minus
	// Energy.
	Battery []int64
	// Trace is the canonical JSONL trace (nil unless Config.Trace).
	Trace []byte
}

// Checksum digests every result field into one FNV-1a value, so
// experiment tables can print a compact witness that different shard
// and worker counts computed the same answer.
func (r *Result) Checksum() uint64 {
	h := newFNV1a()
	mix := h.word
	mix(uint64(r.Nodes))
	mix(uint64(r.Floods))
	for _, o := range r.Origins {
		mix(uint64(o))
	}
	for _, v := range r.Reached {
		mix(uint64(v))
	}
	mix(uint64(r.Forwards))
	mix(uint64(r.Ignored))
	mix(uint64(r.Sent))
	mix(uint64(r.Delivered))
	mix(uint64(r.Dropped))
	mix(uint64(r.Completion))
	mix(uint64(r.Deaths))
	// Churn counters join the digest only when churn actually flipped
	// something, so churn-free checksums — including every pinned golden
	// from before churn existed — are unchanged.
	if r.Suspends != 0 || r.Resumes != 0 {
		mix(uint64(r.Suspends))
		mix(uint64(r.Resumes))
	}
	for _, e := range r.Energy {
		mix(uint64(e))
	}
	for _, v := range r.Heard {
		mix(v)
	}
	for _, v := range r.Level {
		mix(uint64(v))
	}
	for _, v := range r.FirstAt {
		mix(uint64(v))
	}
	for _, v := range r.Battery {
		mix(uint64(v))
	}
	h.bytes(r.Trace)
	return uint64(h)
}

// fnv1a is the 64-bit FNV-1a digest behind Result.Checksum and
// LabelResult.Checksum. Words enter as their eight little-endian bytes.
type fnv1a uint64

const fnvPrime = 1099511628211

func newFNV1a() fnv1a { return 14695981039346656037 }

func (h *fnv1a) word(v uint64) {
	x := *h
	for shift := 0; shift < 64; shift += 8 {
		x = (x ^ fnv1a((v>>shift)&0xff)) * fnvPrime
	}
	*h = x
}

func (h *fnv1a) bytes(b []byte) {
	x := *h
	for _, c := range b {
		x = (x ^ fnv1a(c)) * fnvPrime
	}
	*h = x
}

// runStats is what an executor reports back to Run and RunLabeling.
type runStats struct {
	sent       int64
	delivered  int64
	dropped    int64
	suspends   int64
	resumes    int64
	completion sim.Time
	energy     []cost.Energy // per node, in ID order
	events     []trace.Event
}

// executor runs mkApp's protocol over one fabric and reports its totals.
// execute is the only executor the package runs; the differential tests
// hand Run's and RunLabeling's bodies a single-kernel oracle instead.
type executor func(nw *deploy.Network, st *State, model *cost.Model, shards, workers int,
	mkApp func(shard int) app, hz hazards) runStats

// execute runs mkApp's protocol on the conservative-window engine over
// max(shards, 1) tiles, driven by a pool of workers (<= 0 means
// GOMAXPROCS). mkApp is called once per shard, sequentially, in shard
// order. hz carries the loss channel, the crash and churn schedules, the
// depletion budget, and whether to trace.
func execute(nw *deploy.Network, st *State, model *cost.Model, shards, workers int,
	mkApp func(shard int) app, hz hazards) runStats {
	lookahead := sim.Time(model.TxLatency(1))
	return newEngine(nw, st, NewPartition(nw, max(shards, 1)), model, lookahead, parallel.New(workers), mkApp, hz).execute()
}

// execute runs the engine and folds its shards' totals into one report,
// the shards' slot-indexed ledgers into one energy vector in ID order.
func (eng *engine) execute() runStats {
	rs := runStats{completion: eng.run(), energy: make([]cost.Energy, eng.nw.N())}
	for _, sr := range eng.shards {
		rs.sent += sr.sent
		rs.delivered += sr.delivered
		rs.dropped += sr.dropped
		rs.suspends += sr.suspends
		rs.resumes += sr.resumes
		for v := sr.start; v < sr.end; v++ {
			rs.energy[eng.part.ID[v]] = sr.ledger.Energy(int(v - sr.start))
		}
		rs.events = append(rs.events, sr.tracer.Events()...)
	}
	return rs
}

// settle totals the run's per-node energy spend, computes the remaining
// battery (capacity − spent) per node, and encodes the canonical trace
// when traced.
func (rs *runStats) settle(capacity cost.Energy, traced bool) (total cost.Energy, battery []int64, canon []byte, err error) {
	battery = make([]int64, len(rs.energy))
	for i, e := range rs.energy {
		total += e
		battery[i] = int64(capacity) - int64(e)
	}
	if traced {
		if canon, err = encodeCanonical(rs.events); err != nil {
			return 0, nil, nil, err
		}
	}
	return total, battery, canon, nil
}

// Run executes the multi-source dissemination workload over nw on the
// conservative-window engine and returns its result. Every shard and
// worker count produces an identical Result — including a byte-identical
// trace — for the same deployment and workload.
func Run(nw *deploy.Network, cfg Config) (*Result, error) { return runFloods(nw, cfg, execute) }

func runFloods(nw *deploy.Network, cfg Config, exec executor) (*Result, error) {
	n := nw.N()
	if n == 0 {
		return nil, fmt.Errorf("shard: empty deployment")
	}
	size := cfg.PktSize
	if size == 0 {
		size = 2
	}
	if size < 0 {
		return nil, fmt.Errorf("shard: packet size %d must be positive", size)
	}
	origins := cfg.Origins
	if origins == nil {
		k := cfg.Floods
		if k == 0 {
			k = 1
		}
		if k < 0 {
			return nil, fmt.Errorf("shard: flood count %d must be positive", k)
		}
		origins = make([]int, k)
		for j := range origins {
			origins[j] = j * n / k
		}
	}
	k := len(origins)
	if k == 0 || k > 64 {
		return nil, fmt.Errorf("shard: flood count %d out of [1,64] (Heard is a 64-bit mask)", k)
	}
	if cfg.Floods != 0 && cfg.Origins != nil && cfg.Floods != k {
		return nil, fmt.Errorf("shard: Floods=%d disagrees with %d explicit origins", cfg.Floods, k)
	}
	originMask := make([]uint64, n)
	for j, o := range origins {
		if o < 0 || o >= n {
			return nil, fmt.Errorf("shard: origin %d out of range [0,%d)", o, n)
		}
		originMask[o] |= 1 << uint(j)
	}
	hz, err := buildHazards(n, &cfg)
	if err != nil {
		return nil, err
	}

	st := NewState(nw)
	fs := newFloodState(n)
	var apps []*dissApp
	mk := func(int) app {
		a := newDissApp(fs, originMask, k, size)
		apps = append(apps, a)
		return a
	}
	rs := exec(nw, st, cost.NewUniform(), cfg.Shards, cfg.Workers, mk, hz)
	agg := apps[0]
	for _, a := range apps[1:] {
		agg.fold(a)
	}

	res := &Result{
		Nodes:      n,
		Floods:     k,
		Origins:    append([]int(nil), origins...),
		Reached:    agg.reached,
		Forwards:   agg.forwards,
		Ignored:    agg.ignored,
		Sent:       rs.sent,
		Delivered:  rs.delivered,
		Dropped:    rs.dropped,
		Completion: rs.completion,
		Deaths:     st.Deaths(),
		Suspends:   rs.suspends,
		Resumes:    rs.resumes,
		Heard:      fs.heard,
		Level:      fs.level,
		FirstAt:    fs.firstAt,
		Energy:     rs.energy,
	}
	if res.Total, res.Battery, res.Trace, err = rs.settle(cfg.Capacity, cfg.Trace); err != nil {
		return nil, err
	}
	return res, nil
}

// buildHazards validates the stochastic and fail-stop knobs shared by
// every sharded workload and assembles them into a hazards value: the
// counter-keyed loss channel, the normalized crash schedule, and the
// depletion budget.
func buildHazards(n int, cfg *Config) (hazards, error) {
	var hz hazards
	if math.IsNaN(cfg.Loss) || cfg.Loss < 0 || cfg.Loss >= 1 {
		return hz, fmt.Errorf("shard: loss probability %v out of [0,1)", cfg.Loss)
	}
	if cfg.Loss > 0 && cfg.Burst.Enabled() {
		return hz, fmt.Errorf("shard: Loss and Burst are mutually exclusive")
	}
	switch {
	case cfg.Burst.Enabled():
		ch, err := cfg.Burst.Stream(n, cfg.Seed)
		if err != nil {
			return hz, err
		}
		hz.channel = ch
	case cfg.Loss > 0:
		ch, err := fault.NewBernoulliStream(n, cfg.Loss, cfg.Seed)
		if err != nil {
			return hz, err
		}
		hz.channel = ch
	}
	if cfg.Deplete && cfg.Capacity <= 0 {
		return hz, fmt.Errorf("shard: Deplete needs a positive Capacity, got %d", cfg.Capacity)
	}
	if cfg.Deplete {
		hz.capacity = cfg.Capacity
	}
	if len(cfg.Crashes) > 0 {
		for _, c := range cfg.Crashes {
			if c.Node < 0 || c.Node >= n {
				return hz, fmt.Errorf("shard: crash for node %d outside [0,%d)", c.Node, n)
			}
			if c.At < 0 {
				return hz, fmt.Errorf("shard: crash time %d for node %d must be ≥ 0", c.At, c.Node)
			}
		}
		hz.crashes = fault.At(append(fault.Schedule(nil), cfg.Crashes...)...)
	}
	if len(cfg.Churn) > 0 {
		if err := cfg.Churn.Validate(n); err != nil {
			return hz, err
		}
		hz.churn = cfg.Churn.Normalize()
	}
	if cfg.Trace {
		hz.trace, hz.sink = true, cfg.Sink
	}
	return hz, nil
}
