// Package sim is a deterministic discrete-event simulation kernel. The
// runtime-system protocols of Section 5 (topology emulation, leader
// election) and the network-level experiments run on it.
//
// Determinism: events at equal timestamps fire in scheduling order (a
// monotone sequence number breaks ties), and all randomness is injected by
// callers, so a simulation with a fixed seed replays bit-for-bit. This is
// what lets the test suite assert exact message counts for the Section 5
// protocols.
//
// The event queue is a two-tier "ladder": a circular array of width-one
// buckets covering the near horizon [base, base+ladderSpan), plus a binary
// heap rung for everything outside that window. The paper's uniform cost
// model (one latency unit per b data units) makes almost every delay the
// radio and the virtual machine generate a small integer, so the common
// schedule/pop pair is O(1) amortized instead of O(log n); far-future
// events — watchdog deadlines, battery standing charges, long-haul
// hierarchy messages — fall back to the heap and migrate into the window
// when it advances. The total (At, seq) order is exactly the heap's: see
// the determinism argument on (*Kernel).pop and the differential property
// test against the retained Reference kernel.
package sim

import (
	"container/heap"
	"fmt"
)

// Time is simulated time in cost-model latency units.
type Time int64

// NoOwner marks an event that belongs to no node; CancelOwner never touches
// it.
const NoOwner = -1

// Event is a unit of scheduled work.
type Event struct {
	At   Time
	Fire func()

	seq   int64  // tie-breaker: FIFO among equal timestamps
	idx   int    // slot in its bucket, or heap index in the overflow rung; -1 once popped or cancelled
	bkt   int32  // bucket array index while in the near window; -1 in the overflow rung or unqueued
	owner int    // node that owns the event, or NoOwner
	gen   uint64 // bumped on every reuse; stale Handles compare unequal
}

// Probe observes the kernel's scheduling activity. It exists so the
// observability layer can watch the kernel without sim importing it (the
// trace package imports sim for Time); attach an implementation with
// SetProbe. A nil probe — the default — costs one pointer compare per
// kernel operation.
type Probe interface {
	// EventScheduled reports a new scheduling: current time, target time,
	// and the owning node (NoOwner for unowned events).
	EventScheduled(now, at Time, owner int)
	// EventFired reports an event about to execute at the current time.
	EventFired(now Time, owner int)
	// EventCancelled reports a cancellation (Cancel or CancelOwner).
	EventCancelled(now Time, owner int)
}

// Handle identifies one scheduling of an event. It is a value, safe to copy
// and to retain indefinitely: once the event fires or is cancelled the
// handle goes stale, and cancelling a stale handle is always a no-op even
// if the kernel has recycled the underlying Event for a later scheduling.
type Handle struct {
	e   *Event
	gen uint64
}

// Pending reports whether the scheduling this handle refers to is still
// queued (it has neither fired nor been cancelled).
func (h Handle) Pending() bool { return h.e != nil && h.e.gen == h.gen && h.e.idx != -1 }

// eventHeap is the (At, seq)-ordered binary heap. It is the overflow rung
// of the ladder queue and the whole queue of the Reference kernel the
// differential tests replay against.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

const (
	// ladderSpan is the width of the near-horizon window in time units
	// (one bucket per unit; power of two so slot math is a mask). Under
	// the uniform cost model a one-hop delivery of s data units takes
	// ⌈s/b⌉ units, so radio traffic lands almost entirely inside the
	// window; only watchdogs, standing charges, and the longest
	// hierarchy hauls overflow to the heap rung.
	ladderSpan = 1024
	ladderMask = ladderSpan - 1
)

// Kernel is the simulation engine. The zero value is not usable; call New.
type Kernel struct {
	now     Time
	nextSeq int64
	fired   int64

	// Near horizon: buckets[head] holds events at exactly time base,
	// buckets[(head+d)&ladderMask] events at base+d for d < ladderSpan.
	// Within a bucket events sit in seq order (append order); cancellation
	// leaves a nil tombstone so positions stay stable. cursor is the read
	// position inside the head bucket. Allocated on first schedule.
	buckets [][]*Event
	base    Time
	head    int
	cursor  int
	nnear   int // live (non-tombstone) events in the buckets

	// overflow is the sorted rung: every pending event whose timestamp is
	// outside [base, base+ladderSpan) — far-future events, and events
	// scheduled behind a window that RunUntil advanced past.
	overflow eventHeap

	npend int // total pending events, both tiers
	// free recycles fired and cancelled events so steady-state simulation
	// (the experiment sweeps schedule millions of deliveries) stops
	// allocating one Event per message. Reuse bumps the event's generation,
	// which is what keeps stale Handles harmless; see Cancel.
	free  []*Event
	probe Probe
}

// SetProbe attaches an observer of scheduling activity; nil detaches it.
func (k *Kernel) SetProbe(p Probe) { k.probe = p }

// New returns an empty kernel at time 0.
func New() *Kernel {
	return &Kernel{}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Fired returns the number of events executed so far.
func (k *Kernel) Fired() int64 { return k.fired }

// Pending returns the number of events still queued.
func (k *Kernel) Pending() int { return k.npend }

// At schedules fire to run at absolute time t and returns the event handle.
// Scheduling into the past panics: it is always a protocol bug.
func (k *Kernel) At(t Time, fire func()) Handle {
	return k.schedule(NoOwner, t, fire)
}

// After schedules fire to run d time units from now.
func (k *Kernel) After(d Time, fire func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return k.At(k.now+d, fire)
}

// AtOwned is At with the event tagged as belonging to a node, so the
// engine's fail-stop can CancelOwner everything the node still had
// scheduled (retry timers, deliveries addressed to it) the instant it
// crashes.
func (k *Kernel) AtOwned(owner int, t Time, fire func()) Handle {
	if owner < 0 {
		panic(fmt.Sprintf("sim: invalid event owner %d", owner))
	}
	return k.schedule(owner, t, fire)
}

// AfterOwned is After with an owner tag.
func (k *Kernel) AfterOwned(owner int, d Time, fire func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return k.AtOwned(owner, k.now+d, fire)
}

func (k *Kernel) schedule(owner int, t Time, fire func()) Handle {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", t, k.now))
	}
	if fire == nil {
		panic("sim: nil event function")
	}
	var e *Event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		*e = Event{At: t, Fire: fire, seq: k.nextSeq, owner: owner, gen: e.gen + 1}
	} else {
		e = &Event{At: t, Fire: fire, seq: k.nextSeq, owner: owner}
	}
	k.nextSeq++
	k.insert(e)
	if k.probe != nil {
		k.probe.EventScheduled(k.now, t, owner)
	}
	return Handle{e: e, gen: e.gen}
}

// insert places e in the tier its timestamp selects. An empty queue
// re-anchors the window at e.At, so a simulation whose clock jumped (a
// drained RunUntil, a long quiet gap) keeps its steady-state traffic in
// the O(1) tier instead of drifting permanently into the heap.
func (k *Kernel) insert(e *Event) {
	if k.buckets == nil {
		k.buckets = make([][]*Event, ladderSpan)
	}
	if k.npend == 0 {
		k.base = e.At
		k.head, k.cursor = 0, 0
	}
	k.npend++
	if off := e.At - k.base; off >= 0 && off < ladderSpan {
		slot := (k.head + int(off)) & ladderMask
		e.bkt = int32(slot)
		e.idx = len(k.buckets[slot])
		k.buckets[slot] = append(k.buckets[slot], e)
		k.nnear++
		return
	}
	e.bkt = -1
	heap.Push(&k.overflow, e)
}

// nearPeek returns the earliest live event in the bucket tier without
// removing it, or nil if the tier is empty. It advances the head past
// consumed buckets and the cursor past tombstones as it scans; both only
// ever move forward, so the scan cost amortizes to O(1) per time unit the
// window progresses. It never passes a live event, which is what keeps
// the e.At-base offset of every bucketed event non-negative.
func (k *Kernel) nearPeek() *Event {
	for k.nnear > 0 {
		b := k.buckets[k.head]
		for k.cursor < len(b) {
			if e := b[k.cursor]; e != nil {
				return e
			}
			k.cursor++
		}
		k.buckets[k.head] = b[:0]
		k.cursor = 0
		k.head = (k.head + 1) & ladderMask
		k.base++
	}
	return nil
}

// replenish re-anchors an empty bucket tier at the overflow minimum and
// migrates every overflow event inside the new window. heap.Pop yields
// (At, seq) ascending and buckets are one unit wide, so each bucket
// receives its events in seq order — the FIFO-by-append invariant the
// bucket tier's determinism rests on. Caller guarantees nnear == 0 and a
// non-empty overflow rung.
func (k *Kernel) replenish() {
	k.base = k.overflow[0].At
	k.head, k.cursor = 0, 0
	for len(k.overflow) > 0 && k.overflow[0].At < k.base+ladderSpan {
		e := heap.Pop(&k.overflow).(*Event)
		slot := int(e.At-k.base) & ladderMask
		e.bkt = int32(slot)
		e.idx = len(k.buckets[slot])
		k.buckets[slot] = append(k.buckets[slot], e)
		k.nnear++
	}
}

// peek returns the globally earliest pending event without removing it, or
// nil. Determinism argument: the bucket tier's candidate is its (At, seq)
// minimum (head scan finds the lowest occupied timestamp; within a width-1
// bucket, append order is seq order). The overflow rung's minimum is its
// heap top. The true minimum is the smaller of the two by (At, seq) — the
// rung can legitimately win when RunUntil advanced the window past a later
// scheduling, or when an old far-future event ties a bucketed one on At —
// so one comparison reproduces the reference heap's total order exactly.
func (k *Kernel) peek() *Event {
	ne := k.nearPeek()
	if ne == nil {
		if len(k.overflow) == 0 {
			return nil
		}
		k.replenish()
		ne = k.nearPeek()
	}
	if len(k.overflow) > 0 {
		if o := k.overflow[0]; o.At < ne.At || (o.At == ne.At && o.seq < ne.seq) {
			return o
		}
	}
	return ne
}

// pop removes and returns the globally earliest pending event, or nil.
func (k *Kernel) pop() *Event {
	e := k.peek()
	if e == nil {
		return nil
	}
	if e.bkt >= 0 {
		// peek left the head/cursor pointing exactly at a bucketed winner.
		k.buckets[k.head][k.cursor] = nil
		k.cursor++
		k.nnear--
	} else {
		heap.Pop(&k.overflow)
	}
	e.idx = -1
	e.bkt = -1
	k.npend--
	return e
}

// remove unlinks a still-pending event from whichever tier holds it.
// Bucketed events leave a nil tombstone (positions must stay stable for
// the slots recorded in later events' idx fields); rung events are removed
// from the heap directly.
func (k *Kernel) remove(e *Event) {
	if e.bkt >= 0 {
		k.buckets[e.bkt][e.idx] = nil
		k.nnear--
	} else {
		heap.Remove(&k.overflow, e.idx)
	}
	e.idx = -1
	e.bkt = -1
	k.npend--
}

// Cancel removes a scheduled event. Cancelling a handle whose event already
// fired or was already cancelled is always a safe no-op: the generation
// check makes stale handles inert even after the kernel recycles the
// underlying Event for a later scheduling.
func (k *Kernel) Cancel(h Handle) {
	if !h.Pending() {
		return
	}
	e := h.e
	k.remove(e)
	e.Fire = nil
	k.free = append(k.free, e)
	if k.probe != nil {
		k.probe.EventCancelled(k.now, e.owner)
	}
}

// CancelOwner removes every pending event owned by owner and returns how
// many it cancelled. This is the fail-stop semantics of the fault layer: a
// crashed node's timers never fire and in-flight deliveries addressed to it
// evaporate. Victims are cancelled in timestamp order (bucket tier from the
// window head, then the overflow rung), a deterministic function of the
// kernel's state.
func (k *Kernel) CancelOwner(owner int) int {
	if owner < 0 {
		return 0
	}
	cancelled := 0
	if k.nnear > 0 {
		for i := 0; i < ladderSpan; i++ {
			b := k.buckets[(k.head+i)&ladderMask]
			for j, e := range b {
				if e != nil && e.owner == owner {
					b[j] = nil
					e.idx = -1
					e.bkt = -1
					e.Fire = nil
					k.free = append(k.free, e)
					k.nnear--
					k.npend--
					cancelled++
					if k.probe != nil {
						k.probe.EventCancelled(k.now, owner)
					}
				}
			}
		}
	}
	if len(k.overflow) > 0 {
		var victims []*Event
		for _, e := range k.overflow {
			if e.owner == owner {
				victims = append(victims, e)
			}
		}
		for _, e := range victims {
			heap.Remove(&k.overflow, e.idx)
			e.idx = -1
			e.Fire = nil
			k.free = append(k.free, e)
			k.npend--
			cancelled++
			if k.probe != nil {
				k.probe.EventCancelled(k.now, owner)
			}
		}
	}
	return cancelled
}

// NextAt returns the timestamp of the earliest pending event without
// firing it, and whether any event is pending. The sharded engine polls
// every shard's kernel with this to choose the next conservative window
// start; the underlying peek only advances scan cursors past consumed
// buckets and tombstones, so observing the queue never changes the
// (At, seq) firing order.
func (k *Kernel) NextAt() (Time, bool) {
	e := k.peek()
	if e == nil {
		return 0, false
	}
	return e.At, true
}

// Step fires the single earliest pending event and reports whether one
// existed.
func (k *Kernel) Step() bool {
	e := k.pop()
	if e == nil {
		return false
	}
	k.now = e.At
	k.fired++
	if k.probe != nil {
		k.probe.EventFired(k.now, e.owner)
	}
	e.Fire()
	// Recycle after Fire returned: anything Fire scheduled got fresh or
	// previously freed events, never this one.
	e.Fire = nil
	k.free = append(k.free, e)
	return true
}

// Run fires events until the queue drains and returns the final time.
func (k *Kernel) Run() Time {
	for k.Step() {
	}
	return k.now
}

// RunUntil fires events with timestamps ≤ deadline, advances the clock to
// deadline, and reports whether the queue drained.
func (k *Kernel) RunUntil(deadline Time) bool {
	for {
		e := k.peek()
		if e == nil || e.At > deadline {
			break
		}
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
	return k.npend == 0
}

// RunLimited fires at most maxEvents events and reports whether the queue
// drained. It is the guard rail for protocols that could livelock under a
// buggy configuration.
func (k *Kernel) RunLimited(maxEvents int64) bool {
	for i := int64(0); i < maxEvents; i++ {
		if !k.Step() {
			return true
		}
	}
	return k.npend == 0
}
