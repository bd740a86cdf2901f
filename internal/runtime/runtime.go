// Package runtime executes synthesized programs with one goroutine per
// virtual node over a channel-based message fabric — the concurrent
// counterpart of the deterministic machine in internal/varch. The paper's
// program model is asynchronous message passing with unpredictable delivery
// and possible loss (Section 4.3); here delivery order is whatever the Go
// scheduler produces, which makes every run a fresh adversarial schedule.
// Agreement between this engine and the discrete-event machine on final
// results (tested in E2) is evidence that the synthesized program really is
// order-independent, not just correct under one scheduler.
package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"wsnva/internal/cost"
	"wsnva/internal/fault"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/program"
	"wsnva/internal/regions"
	"wsnva/internal/routing"
	"wsnva/internal/synth"
	"wsnva/internal/trace"
	"wsnva/internal/varch"
)

// Config tunes a concurrent run.
type Config struct {
	// Loss is the per-message drop probability in [0,1).
	Loss float64
	// Retries is the number of retransmissions attempted per message after
	// a loss (a simple stop-and-wait ARQ: each attempt is an independent
	// loss trial; every attempt pays the full route energy, and a successful
	// delivery pays one extra unit-sized acknowledgment along the reverse
	// route). Zero reproduces the paper's bare best-effort model; the E7
	// extension sweeps this knob to show reliability restoring completion.
	Retries int
	// Seed drives the loss coin flips (per-sender streams derived from it).
	Seed int64
	// Tracer, if non-nil, receives structured events from the round. The
	// concurrent engine has no simulated clock, so every event is stamped
	// At=0 and ordered by sequence number only; emission order between
	// goroutines is whatever the Go scheduler produced, which is exactly the
	// adversarial-schedule story this engine exists to tell. The tracer's
	// own mutex makes concurrent emission safe.
	Tracer *trace.Tracer
}

// Result is the outcome of one concurrent round.
type Result struct {
	// Final is the exfiltrated summary, or nil if the round stalled
	// (possible only under message loss).
	Final *regions.Summary
	// Stalled reports that the network reached quiescence without
	// exfiltration — some summary was lost in transit.
	Stalled bool
	// Delivered and Dropped count level-k leader messages.
	Delivered, Dropped int64
	// RuleFirings is the total guarded-command firings across nodes.
	RuleFirings int64
	// RootCoverage is the number of grid cells the root's best partial
	// summary covers — the "how much of the map survived" measure for lossy
	// rounds. Equals N on success.
	RootCoverage int
}

// Runtime executes labeling rounds on a hierarchy with goroutine-per-node
// concurrency.
type Runtime struct {
	hier *varch.Hierarchy
}

// New returns a runtime for the given hierarchy.
func New(h *varch.Hierarchy) *Runtime { return &Runtime{hier: h} }

type envelope struct {
	payload any
}

// nodeFx implements program.Effector over the channel fabric.
type nodeFx struct {
	rt     *run
	coord  geom.Coord
	loss   *fault.Bernoulli // this node's loss coin; nil when Loss == 0
	energy []int64          // shared atomic per-node energy counters
	grid   *geom.Grid
}

type run struct {
	hier    *varch.Hierarchy
	inboxes []chan envelope
	// pending counts units of outstanding work: one start per node plus
	// one per enqueued message. Only processing a unit creates new
	// ones, so once it reaches zero it stays there; done closes quiet at
	// that moment.
	pending atomic.Int64
	quiet   chan struct{}
	stop    chan struct{}
	// results accumulates exfiltrated values in arrival order.
	resultMu sync.Mutex
	results  []any

	delivered atomic.Int64
	dropped   atomic.Int64
	retries   int
	tracer    *trace.Tracer
}

// done retires one unit of work, signalling quiescence on the last one.
func (r *run) done() {
	if r.pending.Add(-1) == 0 {
		close(r.quiet)
	}
}

// emit sends one structured event to the attached tracer. Callers guard
// with f.rt.tracer != nil. At stays 0: this engine has no simulated time.
func (f *nodeFx) emit(kind trace.Kind, c, peer geom.Coord, level int, bytes int64, detail string) {
	f.rt.tracer.EmitCell(0, kind, c, f.grid.Index(c), peer, level, bytes, detail)
}

func (f *nodeFx) Send(level int, size int64, payload any) {
	dst := f.rt.hier.LeaderAt(f.coord, level)
	// chargeRoute mirrors the DES machine's hop-by-hop accounting, so loss-
	// and retry-free runs produce identical ledgers across engines.
	chargeRoute := func(units int64) {
		routing.WalkXY(f.grid, f.coord, dst, func(a, b geom.Coord) {
			atomic.AddInt64(&f.energy[f.grid.Index(a)], units) // tx
			atomic.AddInt64(&f.energy[f.grid.Index(b)], units) // rx
		})
	}
	if f.rt.tracer != nil {
		f.emit(trace.Send, f.coord, dst, level, size, "")
	}
	delivered := false
	for attempt := 0; attempt <= f.rt.retries; attempt++ {
		if attempt > 0 && f.rt.tracer != nil {
			f.emit(trace.Retry, f.coord, dst, level, size, "")
		}
		chargeRoute(size)
		if f.loss != nil && f.loss.Lost(f.grid.Index(f.coord), f.grid.Index(dst), size) {
			f.rt.dropped.Add(1)
			if f.rt.tracer != nil {
				f.emit(trace.Drop, dst, f.coord, level, size, "lost")
			}
			continue
		}
		delivered = true
		if attempt > 0 || f.rt.retries > 0 {
			chargeRoute(1) // the acknowledgment that stops retransmission
		}
		break
	}
	if !delivered {
		return
	}
	f.rt.delivered.Add(1)
	if f.rt.tracer != nil {
		f.emit(trace.Deliver, dst, f.coord, level, size, "")
	}
	f.rt.pending.Add(1)
	select {
	case f.rt.inboxes[f.grid.Index(dst)] <- envelope{payload: payload}:
	case <-f.rt.stop:
		f.rt.done()
	}
}

func (f *nodeFx) Exfiltrate(result any) {
	f.rt.resultMu.Lock()
	f.rt.results = append(f.rt.results, result)
	f.rt.resultMu.Unlock()
	if f.rt.tracer != nil {
		f.emit(trace.Exfiltrate, f.coord, trace.NoCell, 0, 0, "final summary")
	}
}

func (f *nodeFx) Compute(units int64) {
	atomic.AddInt64(&f.energy[f.grid.Index(f.coord)], units)
}

func (f *nodeFx) Sense(units int64) {
	atomic.AddInt64(&f.energy[f.grid.Index(f.coord)], units)
}

// maxWait bounds a round's wall-clock time.
const maxWait = 30 * time.Second

// GenericResult is the program-agnostic outcome of a concurrent round.
type GenericResult struct {
	// Exfiltrated holds everything any node exfiltrated, in arrival order.
	Exfiltrated []any
	// Stalled reports quiescence without any exfiltration.
	Stalled            bool
	Delivered, Dropped int64
	RuleFirings        int64
}

// Run executes one labeling round over m. The ledger, if non-nil, receives
// the per-node energy total as Compute charges (the concurrent engine
// cannot attribute per-op kinds without serializing, so it reports energy
// only; totals match the DES engine on loss-free runs).
func (rt *Runtime) Run(m *field.BinaryMap, ledger *cost.Ledger, cfg Config) (*Result, error) {
	h := rt.hier
	g := h.Grid
	if m.Grid != g {
		return nil, fmt.Errorf("runtime: map grid and hierarchy grid differ")
	}
	gr, insts, err := RunProgram(rt, synth.LabelingProgram(h, m), ledger, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Stalled:     gr.Stalled,
		Delivered:   gr.Delivered,
		Dropped:     gr.Dropped,
		RuleFirings: gr.RuleFirings,
	}
	if len(gr.Exfiltrated) > 0 {
		res.Final = gr.Exfiltrated[0].(*regions.Summary)
		res.Stalled = false
	}
	res.RootCoverage = rootCoverage(insts[g.Index(h.Root())].State, res.Final)
	return res, nil
}

// RunProgram executes one round of a synthesized program with one
// goroutine per virtual node. The returned instances, indexed by grid
// index, expose each node's final state; they are safe to read once
// RunProgram returns.
func RunProgram[S any](rt *Runtime, spec *program.Spec[S], ledger *cost.Ledger, cfg Config) (*GenericResult, []program.Instance[S], error) {
	h := rt.hier
	g := h.Grid
	if math.IsNaN(cfg.Loss) || cfg.Loss < 0 || cfg.Loss >= 1 {
		return nil, nil, fmt.Errorf("runtime: loss %v out of [0,1)", cfg.Loss)
	}
	if cfg.Retries < 0 {
		return nil, nil, fmt.Errorf("runtime: negative retries %d", cfg.Retries)
	}
	n := g.N()
	r := &run{
		hier:    h,
		inboxes: make([]chan envelope, n),
		quiet:   make(chan struct{}),
		stop:    make(chan struct{}),
		retries: cfg.Retries,
		tracer:  cfg.Tracer,
	}
	r.tracer.EmitRun(0, trace.Phase, 0, "runtime-round:start")
	// Inbox capacity: a node receives at most 3 messages per level it
	// leads, so 3*levels+8 can never block a sender for long; capacity
	// beyond that only decouples schedules further.
	capacity := 3*h.Levels + 8
	for i := range r.inboxes {
		r.inboxes[i] = make(chan envelope, capacity)
	}
	energy := make([]int64, n)
	fxs := make([]nodeFx, n)
	insts := program.New(spec, n, func(idx int) program.Effector {
		fxs[idx] = nodeFx{
			rt:     r,
			coord:  g.CoordOf(idx),
			energy: energy,
			grid:   g,
		}
		if cfg.Loss > 0 {
			fxs[idx].loss = fault.NewBernoulli(cfg.Loss, rand.New(rand.NewSource(cfg.Seed^int64(idx)*0x9e3779b9)))
		}
		return &fxs[idx]
	})
	if r.tracer != nil {
		program.SetFireHook(insts, func(idx int, rule string) {
			fxs[idx].emit(trace.RuleFire, fxs[idx].coord, trace.NoCell, 0, 0, rule)
		})
	}
	var wg sync.WaitGroup
	r.pending.Store(int64(n)) // one unit of start work per node
	for idx := range insts {
		wg.Add(1)
		go func(inst *program.Instance[S], inbox chan envelope) {
			defer wg.Done()
			inst.RunToQuiescence()
			r.done()
			for {
				select {
				case env := <-inbox:
					inst.OnMessage(env.payload)
					r.done()
				case <-r.stop:
					return
				}
			}
		}(&insts[idx], r.inboxes[idx])
	}

	// Supervise: stop at global quiescence (no node processing, no message
	// in flight) or on wall-clock timeout. Exfiltration is a result, not a
	// stop condition — generic programs may keep processing afterwards.
	timeout := time.NewTimer(maxWait)
	defer timeout.Stop()
	select {
	case <-r.quiet:
	case <-timeout.C:
		close(r.stop)
		wg.Wait()
		return nil, nil, fmt.Errorf("runtime: round did not finish within %v", maxWait)
	}
	close(r.stop)
	wg.Wait()
	r.tracer.EmitRun(0, trace.Phase, 0, "runtime-round:end")

	res := &GenericResult{
		Exfiltrated: r.results,
		Stalled:     len(r.results) == 0,
		Delivered:   r.delivered.Load(),
		Dropped:     r.dropped.Load(),
	}
	res.RuleFirings, _ = program.Fired(insts)
	if ledger != nil {
		for i, e := range energy {
			ledger.Charge(i, cost.Compute, e)
		}
	}
	return res, insts, nil
}

// rootCoverage inspects the root's best summary after shutdown.
func rootCoverage(root *synth.LabelState, final *regions.Summary) int {
	if final != nil {
		return final.CoveredCells()
	}
	best := 0
	for _, s := range root.SubGraph {
		if s != nil && s.CoveredCells() > best {
			best = s.CoveredCells()
		}
	}
	return best
}
