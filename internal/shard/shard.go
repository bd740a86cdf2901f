package shard

import (
	"fmt"

	"wsnva/internal/churn"
	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/fault"
	"wsnva/internal/parallel"
	"wsnva/internal/radio"
	"wsnva/internal/sim"
	"wsnva/internal/trace"
)

// Config selects the workload and the execution strategy for a sharded
// run. The zero value (plus a deployment) is a valid single-flood,
// single-shard run on the paper's uniform cost model.
type Config struct {
	// Shards is the number of spatial tiles; <= 1 selects the
	// single-kernel oracle path (today's engine, unmodified).
	Shards int
	// Workers bounds the parallel.Pool driving the shards; <= 0 means
	// GOMAXPROCS. Ignored on the oracle path.
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

	// Crashed marks nodes whose radio is off from the start (fail-stop
	// before time zero). Nil means all alive; otherwise length N.
	Crashed []bool

	// Crashes schedules mid-run fail-stop deaths (a schedule entry for a
	// node in the Crashed mask is ignored — the node is already down).
	// Crash events fire before any same-instant delivery or wake, on
	// both execution paths.
	Crashes fault.Schedule

	// Churn schedules reversible radio suspensions and resumptions
	// (duty-cycle sleep/wake; departures and arrivals are the same
	// transition held longer). A suspended node neither sends nor
	// receives — deliveries drop with "asleep receiver" — but keeps its
	// state and timers and rejoins silently on resume. Events are
	// pre-scheduled into each victim's owner shard exactly like Crashes,
	// so the same schedule replays identically on the oracle and on
	// every shard count.
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

	// Capacity is the per-node energy budget used to fill the SoA
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

	// Model overrides the cost model (default: the paper's uniform
	// model).
	Model *cost.Model
}

// Result is the outcome of a run. Everything in it is a deterministic
// function of the deployment and the workload alone — the same for
// every shard and worker count — which the differential property tests
// enforce against the oracle.
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
	// Radio totals: broadcasts initiated, per-neighbor deliveries,
	// per-neighbor drops (dead receivers).
	Sent      int64
	Delivered int64
	Dropped   int64
	// Completion is the timestamp of the last event fired.
	Completion sim.Time
	// Deaths counts nodes down at the end of the run: the Crashed mask,
	// fired Crashes entries, and battery depletions.
	Deaths int
	// Suspends and Resumes count churn transitions actually applied (a
	// sleep of a dead or sleeping node is a no-op on both paths).
	Suspends int64
	Resumes  int64
	// Energy is the per-node energy spend; Total its sum.
	Energy []cost.Energy
	Total  cost.Energy
	// SoA views of the final node state (aliases into the run's State).
	Heard   []uint64
	Level   []int32
	FirstAt []sim.Time
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

// runStats is what both execution paths report back to Run and
// RunLabeling.
type runStats struct {
	sent       int64
	delivered  int64
	dropped    int64
	suspends   int64
	resumes    int64
	completion sim.Time
	ledger     *cost.Ledger
	events     []trace.Event
}

// execute runs mkApp's protocol over the single-kernel oracle (shards <= 1)
// or the conservative-window engine on shards tiles driven by a pool of
// workers (<= 0 means GOMAXPROCS). mkApp is called once per shard (once
// total on the oracle path), sequentially, in shard order. hz carries the
// loss channel, the mid-run crash schedule, and the depletion budget; both
// paths thread it through the same gates. It fails only when the trace
// ring overflowed.
func execute(nw *deploy.Network, st *State, model *cost.Model, shards, workers int,
	mkApp func(shard int) app, hz hazards, crashed []bool, traceCap int) (runStats, error) {
	var rs runStats
	var lost int64
	if shards <= 1 {
		fab := newSingleFab(nw, st, model, hz, traceCap)
		rs.completion = fab.run(mkApp(0), crashed)
		rs.sent, rs.delivered, rs.dropped = fab.med.Stats()
		rs.suspends, rs.resumes = fab.suspends, fab.resumes
		rs.ledger = fab.med.Ledger()
		rs.events = fab.tracer.Events()
		lost = fab.tracer.Lost()
	} else {
		lookahead := radio.UniformDelay{Model: model}.MinDelay()
		eng := newEngine(nw, st, NewPartition(nw, shards), model, lookahead, parallel.New(workers), mkApp, hz, traceCap)
		rs.completion = eng.run(crashed)
		rs.ledger = cost.NewLedger(model, nw.N())
		for _, sr := range eng.shards {
			rs.sent += sr.sent
			rs.delivered += sr.delivered
			rs.dropped += sr.dropped
			rs.suspends += sr.suspends
			rs.resumes += sr.resumes
			rs.ledger.Add(sr.ledger)
			rs.events = append(rs.events, sr.tracer.Events()...)
			lost += sr.tracer.Lost()
		}
	}
	if lost > 0 {
		return rs, fmt.Errorf("shard: trace ring overflowed, %d events lost", lost)
	}
	return rs, nil
}

// settle turns the run's ledger into the per-node energy spend and its
// total, writes the remaining battery (capacity − spent) into st.Battery,
// and encodes the canonical trace when traced.
func (rs *runStats) settle(st *State, capacity cost.Energy, traced bool) (energy []cost.Energy, total cost.Energy, canon []byte, err error) {
	energy = make([]cost.Energy, len(st.Battery))
	for i := range energy {
		e := rs.ledger.Energy(i)
		energy[i] = e
		total += e
		st.Battery[i] = int64(capacity) - int64(e)
	}
	if traced {
		if canon, err = encodeCanonical(rs.events); err != nil {
			return nil, 0, nil, err
		}
	}
	return energy, total, canon, nil
}

// Run executes the multi-source dissemination workload over nw and
// returns its result. Shards <= 1 runs the single-kernel oracle;
// larger counts run the conservative-window parallel engine. Both
// produce identical Results — including byte-identical traces — for
// the same deployment and workload.
func Run(nw *deploy.Network, cfg Config) (*Result, error) {
	n := nw.N()
	if n == 0 {
		return nil, fmt.Errorf("shard: empty deployment")
	}
	model := cfg.Model
	if model == nil {
		model = cost.NewUniform()
	}
	if err := model.Validate(); err != nil {
		return nil, err
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
	if cfg.Crashed != nil && len(cfg.Crashed) != n {
		return nil, fmt.Errorf("shard: crash mask covers %d nodes, network has %d", len(cfg.Crashed), n)
	}
	hz, err := buildHazards(n, &cfg)
	if err != nil {
		return nil, err
	}

	st := NewState(nw)
	traceCap := 0
	if cfg.Trace {
		// Exact upper bound on emitted events: each node forwards each
		// flood at most once, and one broadcast emits one Tx plus one
		// Rx-or-Drop per neighbor (a loss draw swaps an Rx for a Drop,
		// never adds an event); add one potential Death and one
		// potential Deplete per node, plus one Sleep or Wake per churn
		// entry.
		sumDeg := 0
		for i := 0; i < n; i++ {
			sumDeg += nw.Degree(i)
		}
		traceCap = k*(n+sumDeg) + 2*n + len(cfg.Churn) + 1
	}
	var apps []*dissApp
	mk := func(int) app {
		a := newDissApp(st, originMask, k, size)
		apps = append(apps, a)
		return a
	}
	rs, err := execute(nw, st, model, cfg.Shards, cfg.Workers, mk, hz, cfg.Crashed, traceCap)
	if err != nil {
		return nil, err
	}
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
		Heard:      st.Heard,
		Level:      st.Level,
		FirstAt:    st.FirstAt,
		Battery:    st.Battery,
	}
	if res.Energy, res.Total, res.Trace, err = rs.settle(st, cfg.Capacity, cfg.Trace); err != nil {
		return nil, err
	}
	return res, nil
}

// buildHazards validates the stochastic and fail-stop knobs shared by
// every sharded workload and assembles them into a hazards value: the
// counter-keyed loss channel, the filtered mid-run crash schedule, and
// the depletion budget.
func buildHazards(n int, cfg *Config) (hazards, error) {
	var hz hazards
	if cfg.Loss < 0 || cfg.Loss >= 1 {
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
		keep := make(fault.Schedule, 0, len(cfg.Crashes))
		for _, c := range cfg.Crashes {
			if c.Node < 0 || c.Node >= n {
				return hz, fmt.Errorf("shard: crash for node %d outside [0,%d)", c.Node, n)
			}
			if c.At < 0 {
				return hz, fmt.Errorf("shard: crash time %d for node %d must be ≥ 0", c.At, c.Node)
			}
			// A node in the t=0 Crashed mask is already down before the
			// schedule starts; keeping its entry would make the oracle's
			// injector cancel owned events the engine never scheduled.
			if cfg.Crashed != nil && cfg.Crashed[c.Node] {
				continue
			}
			keep = append(keep, c)
		}
		hz.crashes = fault.At(keep...)
	}
	if len(cfg.Churn) > 0 {
		if err := cfg.Churn.Validate(n); err != nil {
			return hz, err
		}
		hz.churn = cfg.Churn.Normalize()
	}
	if cfg.Trace {
		hz.sink = cfg.Sink
	}
	return hz, nil
}
