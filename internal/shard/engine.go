package shard

import (
	"fmt"
	"slices"

	"wsnva/internal/battery"
	"wsnva/internal/churn"
	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/fault"
	"wsnva/internal/parallel"
	"wsnva/internal/sim"
	"wsnva/internal/trace"
)

// outRow is one (source, destination) cell of the outbox: a record per
// transmission the source shard sent into the destination shard during
// one window, and the records' receiver IDs back to back in to, each
// record's in ascending order.
type outRow struct {
	recs []xrec
	to   []int32
}

// xrec is one transmission's share of an outbox row: the delivery time,
// the packet (from is the sender's ID), and n, the number of its
// receivers in the row's to array.
type xrec struct {
	at      sim.Time
	from    int32
	n       int32
	size    int64
	key     int64
	payload any
}

// hazards bundles the stochastic and fail-stop machinery a run
// threads through its fabric: the counter-keyed loss channel, the
// crash schedule, and the battery budget (0 disables
// depletion). A zero value is the loss-free, fault-free, untraced
// fast path.
type hazards struct {
	channel  *fault.StreamChannel
	crashes  fault.Schedule
	churn    churn.Schedule
	capacity cost.Energy
	// trace gives every kernel a tracer (Config.Trace). sink, when set
	// alongside, observes events live as each kernel emits them
	// (interleaving-dependent order — the canonical trace in the result
	// is the deterministic record).
	trace bool
	sink  trace.Sink
}

// engine runs one simulation across S spatial shards in conservative
// time windows. Each window [T, T+L) with L = lookahead proceeds as:
//
//  1. Barrier (sequential): swap the double-buffered outbox matrices and
//     compute T = the minimum pending timestamp across every shard
//     kernel and every in-flight cross-shard message.
//  2. Parallel phase (parallel.ForEach over shards): each shard injects
//     the messages addressed to it from the previous window into its own
//     kernel, then fires everything with timestamp ≤ T+L−1.
//
// Safety: any message generated during a window has delivery time
// ≥ sendTime + L ≥ windowEnd, so barrier injection never lands in a
// destination shard's executed past, and within a shard the ladder
// queue's (time, seq) order is untouched. The double buffering gives
// the exchange its happens-before edges for free: a window only reads
// outbox rows that were completely written before the previous
// ForEach's WaitGroup barrier. Injection only schedules: a receiver's
// liveness is judged when the delivery instant runs, after that
// instant's crash and churn events and possibly in a later window.
type engine struct {
	nw        *deploy.Network
	st        *State
	part      *Partition
	model     *cost.Model
	lookahead sim.Time
	pool      *parallel.Pool
	// channel is shared by every shard: all of its mutable state is
	// per-sender, and only a node's owner shard draws for it, so shards
	// never touch the same entry (see fault.StreamChannel).
	channel *fault.StreamChannel
	shards  []*shardRun
	// interior[v] reports that every neighbor of slot v's node is on v's
	// shard. Each shard marks its own slots; one shard has no border.
	interior []bool
	// cur[src][dst] collects transmissions sent by shard src into shard
	// dst in the running window; prev holds the previous window's sends
	// and is drained (and reset) by the destination shards at injection
	// time.
	cur  [][]outRow
	prev [][]outRow
}

// shardRun is one shard's private execution state: its kernel, ledger,
// tracer, app instance, and stat counters. Everything here is touched
// only by the goroutine running the shard's window (plus the sequential
// barrier), so none of it needs locks.
type shardRun struct {
	eng  *engine
	id   int
	kern *sim.Kernel
	// The shard owns the slots [start, end). Its ledger (nil when the
	// range is empty) covers exactly those, indexed by slot − start.
	start, end int32
	ledger     *cost.Ledger
	tracer     *trace.Tracer
	app        app
	// bank meters this shard's ledger when depletion is armed, over the
	// ledger's range. A node's every charge (Tx at its sends, Rx at its
	// instant's drain) lands on its owner shard's ledger, so exactly one bank
	// observes each node's complete drain sequence — the same sequence
	// the oracle's single bank sees.
	bank *battery.Bank

	sent      int64
	delivered int64
	dropped   int64
	suspends  int64
	resumes   int64
	last      sim.Time // time of the last event this shard fired

	// in holds the inputs of the current instant for the owned nodes;
	// drain is the event that wakes them, scheduled at the instant's
	// first input.
	in    inbox
	drain func()

	freeFan []*fanout

	// txn numbers this shard's broadcasts; open[dst] is the broadcast
	// whose record is the last one in this shard's outbox row to dst, so
	// a broadcast opens one record per destination shard.
	txn  uint64
	open []uint64
}

// fanout is a pooled delivery event: one kernel event delivering a
// packet to every receiver of one transmission on this shard in
// ascending ID order — a local fan-out, or an injected outbox record.
//
// to holds receiver IDs and is read-only: on a lossless broadcast from
// an interior node it is the sender's row of the deployment itself.
// Filtered lists are built in own, the record's private buffer, so
// nothing is ever appended into a row.
type fanout struct {
	s       *shardRun
	from    int32
	size    int64
	key     int64
	payload any
	to      []int32
	own     []int32
	fire    func()
}

func newEngine(nw *deploy.Network, st *State, part *Partition, model *cost.Model,
	lookahead sim.Time, pool *parallel.Pool, mkApp func(shard int) app, hz hazards) *engine {
	if lookahead < 1 {
		panic(fmt.Sprintf("shard: lookahead %d must be at least one time unit", lookahead))
	}
	s := part.Shards
	e := &engine{
		nw:        nw,
		st:        st,
		part:      part,
		model:     model,
		lookahead: lookahead,
		pool:      pool,
		channel:   hz.channel,
		shards:    make([]*shardRun, s),
		cur:       makeOutbox(s),
		prev:      makeOutbox(s),
		interior:  make([]bool, nw.N()),
	}
	for i := 0; i < s; i++ {
		sr := &shardRun{
			eng:   e,
			id:    i,
			kern:  sim.New(),
			start: part.Start[i],
			end:   part.Start[i+1],
			in:    inbox{st: st, id: part.ID, slot: part.Slot},
			open:  make([]uint64, s),
		}
		// The drain's first input already stamped last with its instant.
		sr.drain = func() { sr.in.drain(sr, sr.app) }
		if hz.trace {
			sr.tracer = trace.New()
			sr.tracer.SetSink(hz.sink)
		}
		if size := int(sr.end - sr.start); size > 0 {
			sr.ledger = cost.NewLedger(model, size)
			if hz.capacity > 0 {
				// No bank tracer: it would name the local index. deplete
				// emits the Deplete event under the node's ID instead.
				sr.bank = battery.Uniform(size, hz.capacity)
				sr.bank.Gasp(sr.kern.Now)
				sr.bank.OnDeplete(sr.deplete)
				sr.ledger.SetMeter(sr.bank)
			}
		}
		sr.app = mkApp(i)
		e.shards[i] = sr
	}
	parallel.ForEach(pool, s, func(i int) { e.shards[i].markInterior() })
	// Crashes are known up front and only touch owner-shard state, so
	// they are pre-scheduled into each victim's owner kernel — no
	// cross-shard traffic needed. Scheduling them here, before the start
	// phase queues anything, gives the crash events the lowest sequence
	// numbers at their timestamps: a crash always fires before any
	// same-instant delivery or wake, exactly as the oracle's crashes
	// (armed with fault.Schedule.Arm before app start) do.
	for _, c := range hz.crashes {
		c := c
		sr := e.shards[part.Owner[c.Node]]
		sr.kern.At(c.At, func() {
			sr.last = sr.kern.Now()
			sr.kill(c.Node)
		})
	}
	// Churn transitions are pre-scheduled the same way — per victim's
	// owner shard, after the crashes, so a same-instant crash beats a
	// same-instant sleep or wake by sequence number (the oracle arms its
	// crashes before scheduling churn too).
	for _, ce := range hz.churn {
		ce := ce
		sr := e.shards[part.Owner[ce.Node]]
		sr.kern.At(ce.At, func() {
			sr.last = sr.kern.Now()
			sr.churn(ce.Node, ce.Op.Down())
		})
	}
	return e
}

// markInterior sets the interior flags of the shard's own slots. A lone
// shard owns every neighbor, so it reads no row.
func (s *shardRun) markInterior() {
	e := s.eng
	owner, me := e.part.Owner, int32(s.id)
	for v := s.start; v < s.end; v++ {
		var row []int32
		if e.part.Shards > 1 {
			row = e.nw.Neighbors(int(e.part.ID[v]))
		}
		in := true
		for _, id := range row {
			if owner[id] != me {
				in = false
				break
			}
		}
		e.interior[v] = in
	}
}

// churn applies one reversible radio transition, mirroring
// radio.Medium.Suspend/Resume: a sleep of a dead or sleeping node and a
// wake of a dead or awake node are silent no-ops.
func (s *shardRun) churn(node int, down bool) {
	st, v := s.eng.st, s.eng.part.Slot[node]
	if down {
		if !st.Alive[v] || st.Suspended[v] {
			return
		}
		st.Suspended[v] = true
		s.suspends++
		if s.tracer != nil {
			s.emit(trace.Sleep, node, -1, 0, "radio sleep")
		}
		return
	}
	if !st.Alive[v] || !st.Suspended[v] {
		return
	}
	st.Suspended[v] = false
	s.resumes++
	if s.tracer != nil {
		s.emit(trace.Wake, node, -1, 0, "radio wake")
	}
}

// kill is the fail-stop crash: the radio goes silent immediately —
// deliveries at the crash instant are already too late, because the
// crash event's sequence number precedes theirs — and every event the
// node owns (its timer) is cancelled. A node that already depleted
// emits no second Death, but its owned events are still cancelled,
// mirroring the oracle's kill exactly (a timer re-armed during the
// dying-gasp instant dies here on both).
func (s *shardRun) kill(node int) {
	st, v := s.eng.st, s.eng.part.Slot[node]
	if st.Alive[v] {
		st.Alive[v] = false
		if s.tracer != nil {
			s.emit(trace.Death, node, -1, 0, "radio off")
		}
	}
	st.timerSet[v] = false
	s.kern.CancelOwner(node)
}

// deplete is the battery death, fired synchronously by the bank inside
// the crossing charge: the node finishes the current instant (GaspUntil
// keeps the liveness gate open for events stamped now) and is silent
// from the next time step on. Pending timers are deliberately NOT
// cancelled here: the sequence order of a same-instant timer against
// the charge that crossed the budget is schedule-dependent (barrier
// injection assigns late sequence numbers), so cancelling would make
// the dying wake's timer flag depend on the shard count. Instead the
// gasp covers the whole instant — a timer stamped now still fires —
// and any later timer is swallowed by the drain's liveness gate. The
// bank calls it with the ledger's index, slot − start; it emits the
// bank's Deplete event (in gasp mode the budget, not the drain) under
// the node's ID.
func (s *shardRun) deplete(i int) {
	st, v := s.eng.st, s.start+int32(i)
	node := int(s.eng.part.ID[v])
	if s.tracer != nil {
		s.emit(trace.Deplete, node, -1, int64(s.bank.Capacity(i)), "battery exhausted")
	}
	if !st.Alive[v] {
		return
	}
	st.Alive[v] = false
	st.GaspUntil[v] = s.kern.Now()
	if s.tracer != nil {
		s.emit(trace.Death, node, -1, 0, "radio off")
	}
}

func makeOutbox(s int) [][]outRow {
	box := make([][]outRow, s)
	for i := range box {
		box[i] = make([]outRow, s)
	}
	return box
}

// run executes the whole simulation and returns the completion time:
// the timestamp of the last event fired by any shard.
func (e *engine) run() sim.Time {
	// Start phase: every app boots its owned nodes at time 0, writing
	// only owner-shard state and its own outbox row.
	parallel.ForEach(e.pool, len(e.shards), func(i int) {
		sr := e.shards[i]
		for v := sr.start; v < sr.end; v++ {
			sr.app.start(sr, int(e.part.ID[v]))
		}
	})
	for {
		e.cur, e.prev = e.prev, e.cur
		t, ok := e.nextTime()
		if !ok {
			break
		}
		deadline := t + e.lookahead - 1
		parallel.ForEach(e.pool, len(e.shards), func(i int) {
			sr := e.shards[i]
			sr.inject()
			sr.kern.RunUntil(deadline)
		})
	}
	var completion sim.Time
	for _, sr := range e.shards {
		if sr.last > completion {
			completion = sr.last
		}
	}
	return completion
}

// nextTime returns the earliest pending timestamp across all shard
// kernels and all records awaiting injection, run at the barrier.
func (e *engine) nextTime() (sim.Time, bool) {
	var t sim.Time
	found := false
	for _, sr := range e.shards {
		if at, ok := sr.kern.NextAt(); ok && (!found || at < t) {
			t, found = at, true
		}
	}
	for src := range e.prev {
		for dst := range e.prev[src] {
			for _, r := range e.prev[src][dst].recs {
				if !found || r.at < t {
					t, found = r.at, true
				}
			}
		}
	}
	return t, found
}

// inject schedules every record addressed to this shard from the
// previous window as one pooled fanout at its delivery time, in
// ascending source-shard order (then send order within a source) so
// event sequence numbers are a deterministic function of the exchange,
// and resets the drained rows for reuse, keeping no payload.
func (s *shardRun) inject() {
	e := s.eng
	for src := range e.prev {
		row := &e.prev[src][s.id]
		to := row.to
		for _, r := range row.recs {
			f := s.newFanout(r.from, r.size, r.key, r.payload)
			f.own = append(f.own, to[:r.n]...)
			f.to = f.own
			to = to[r.n:]
			s.kern.At(r.at, f.fire)
		}
		clear(row.recs)
		row.recs, row.to = row.recs[:0], row.to[:0]
	}
}

// broadcast implements fabric: charge the sender, split the fan-out
// into one pooled local delivery event plus one outbox record per
// destination shard, all at sendTime + TxLatency(size). Loss is drawn per
// neighbor in ascending-ID order from the shared counter-keyed channel
// — the identical draw sequence radio.Medium consumes, because the
// channel is keyed by the sender's own counter, not by any global
// schedule. A lossless broadcast from an interior node fans out from
// the sender's row of the deployment in place. Returns the number of
// neighbors the packet was queued for, losses excluded, matching
// Medium.Broadcast.
func (s *shardRun) broadcast(from int, size, key int64) int {
	if size <= 0 {
		panic(fmt.Sprintf("shard: packet size %d must be positive", size))
	}
	e := s.eng
	v := e.part.Slot[from]
	if !e.st.liveAt(v, s.kern.Now()) {
		return 0
	}
	s.sent++
	s.txn++
	s.ledger.Charge(int(v-s.start), cost.Tx, size)
	if s.tracer != nil {
		s.emit(trace.Tx, from, -1, size, "broadcast")
	}
	at := s.kern.Now() + sim.Time(e.model.TxLatency(size))
	row := e.nw.Neighbors(from)
	ch := e.channel
	if ch == nil && e.interior[v] {
		if len(row) > 0 {
			f := s.newFanout(int32(from), size, key, nil)
			f.to = row
			s.kern.At(at, f.fire)
		}
		return len(row)
	}
	var local *fanout
	queued := 0
	for _, id := range row {
		if ch != nil && ch.Lost(from, int(id), size) {
			s.dropped++
			if s.tracer != nil {
				s.emit(trace.Drop, int(id), from, size, "lost")
			}
			continue
		}
		queued++
		if dst := e.part.Owner[id]; dst == int32(s.id) {
			if local == nil {
				local = s.newFanout(int32(from), size, key, nil)
			}
			local.own = append(local.own, id)
		} else {
			out := &e.cur[s.id][dst]
			if s.open[dst] != s.txn {
				s.open[dst] = s.txn
				out.recs = append(out.recs, xrec{at: at, from: int32(from), size: size, key: key})
			}
			out.recs[len(out.recs)-1].n++
			out.to = append(out.to, id)
		}
	}
	if local != nil {
		local.to = local.own
		s.kern.At(at, local.fire)
	}
	return queued
}

// unicast implements fabric, mirroring Medium.Unicast event for event:
// neighbor check, liveness gate, Tx charge and trace, one loss draw,
// then a single delivery — local fan-out of one, or an outbox entry
// when the receiver lives on another shard.
func (s *shardRun) unicast(from, to int, size, key int64, payload any) bool {
	if size <= 0 {
		panic(fmt.Sprintf("shard: packet size %d must be positive", size))
	}
	if _, ok := slices.BinarySearch(s.eng.nw.Neighbors(from), int32(to)); !ok {
		panic(fmt.Sprintf("shard: unicast %d->%d between non-neighbors", from, to))
	}
	p := s.eng.part
	v := p.Slot[from]
	if !s.eng.st.liveAt(v, s.kern.Now()) {
		return false
	}
	s.sent++
	s.ledger.Charge(int(v-s.start), cost.Tx, size)
	if s.tracer != nil {
		s.emit(trace.Tx, from, to, size, "unicast")
	}
	if ch := s.eng.channel; ch != nil && ch.Lost(from, to, size) {
		s.dropped++
		if s.tracer != nil {
			s.emit(trace.Drop, to, from, size, "lost")
		}
		return false
	}
	at := s.kern.Now() + sim.Time(s.eng.model.TxLatency(size))
	if dst := p.Owner[to]; dst == int32(s.id) {
		f := s.newFanout(int32(from), size, key, payload)
		f.own = append(f.own, int32(to))
		f.to = f.own
		s.kern.At(at, f.fire)
	} else {
		out := &s.eng.cur[s.id][dst]
		out.recs = append(out.recs, xrec{at: at, from: int32(from), n: 1, size: size, key: key, payload: payload})
		out.to = append(out.to, int32(to))
	}
	return true
}

func (s *shardRun) newFanout(from int32, size, key int64, payload any) *fanout {
	if n := len(s.freeFan); n > 0 {
		f := s.freeFan[n-1]
		s.freeFan[n-1] = nil
		s.freeFan = s.freeFan[:n-1]
		f.from, f.size, f.key, f.payload = from, size, key, payload
		return f
	}
	f := &fanout{s: s, from: from, size: size, key: key, payload: payload}
	f.fire = f.run
	return f
}

// run hands the transmission to the inbox in one call, as one record
// queued for each receiver. Liveness, the Rx charge and the trace wait
// for the drain (land).
func (f *fanout) run() {
	s := f.s
	s.last = s.kern.Now()
	if s.in.deliver(Packet{From: int(f.from), Size: f.size, Key: f.key, Payload: f.payload}, f.to) {
		s.kern.After(0, s.drain)
	}
	f.payload, f.to, f.own = nil, nil, f.own[:0]
	s.freeFan = append(s.freeFan, f)
}

// land implements fabric for a slot this shard owns: one Rx charge for a
// live receiver's summed sizes gives radio.Medium's answers (DESIGN.md
// §7); a dead or asleep receiver's batch is dropped. Packets are traced.
func (s *shardRun) land(v int32, recs []Packet, batch []int32, live bool) {
	kind, detail := trace.Rx, ""
	if live {
		s.delivered += int64(len(batch))
		var units int64
		for _, r := range batch {
			units += recs[r].Size
		}
		s.ledger.Charge(int(v-s.start), cost.Rx, units)
	} else {
		// Same split as radio.Medium: an alive-but-suspended receiver
		// reports the reversible drop reason.
		s.dropped += int64(len(batch))
		kind, detail = trace.Drop, "dead receiver"
		if s.eng.st.Alive[v] {
			detail = "asleep receiver"
		}
	}
	if s.tracer != nil {
		for _, r := range batch {
			s.emit(kind, int(s.eng.part.ID[v]), recs[r].From, recs[r].Size, detail)
		}
	}
}

func (s *shardRun) now() sim.Time { return s.kern.Now() }

func (s *shardRun) wakeAfter(n int, d sim.Time) sim.Time {
	if d <= 0 {
		panic(fmt.Sprintf("shard: wake delay %d must be positive", d))
	}
	st, v := s.eng.st, s.eng.part.Slot[n]
	if st.timerSet[v] {
		panic(fmt.Sprintf("shard: node %d already has a pending timer", n))
	}
	st.timerSet[v] = true
	at := s.kern.Now() + d
	// The timer is the node's owned event: a crash cancels it via
	// CancelOwner (the crash event's low sequence number makes that
	// deterministic), while depletion leaves it for the drain's liveness
	// gate. The drain event stays unowned so a crash never unschedules
	// an already-accumulated batch.
	s.kern.AfterOwned(n, d, func() {
		s.last = s.kern.Now()
		st.timerSet[v] = false
		if s.in.touch(v) {
			s.kern.After(0, s.drain)
		}
	})
	return at
}

// emit mirrors radio.Medium's structured-event shape field for field,
// so canonicalized sharded traces are byte-identical to oracle traces.
// node and peer are IDs.
func (s *shardRun) emit(kind trace.Kind, node, peer int, size int64, detail string) {
	e := trace.Event{At: s.kern.Now(), Kind: kind,
		Node: trace.NodeName(node), ID: node,
		Col: -1, Row: -1, PeerCol: -1, PeerRow: -1,
		Bytes: size, Detail: detail}
	if peer >= 0 {
		e.Peer = trace.NodeName(peer)
	}
	s.tracer.EmitEvent(e)
}
