package sim

import (
	"container/heap"
	"fmt"
)

// Reference is the original container/heap event kernel, retained verbatim
// as the oracle for the ladder queue: same Handle/generation cancellation
// semantics, same (At, seq) total order, same free-list recycling, none of
// the bucketing. The differential property tests in ladder_test.go replay
// identical operation scripts through a Kernel and a Reference and demand
// bit-identical fire sequences. It is O(log n) per operation.
type Reference struct {
	now     Time
	queue   eventHeap
	nextSeq int64
	fired   int64
	free    []*Event
	probe   Probe
}

// NewReference returns an empty reference kernel at time 0.
func NewReference() *Reference {
	return &Reference{}
}

// SetProbe attaches an observer of scheduling activity; nil detaches it.
func (k *Reference) SetProbe(p Probe) { k.probe = p }

// Now returns the current simulated time.
func (k *Reference) Now() Time { return k.now }

// Fired returns the number of events executed so far.
func (k *Reference) Fired() int64 { return k.fired }

// Pending returns the number of events still queued.
func (k *Reference) Pending() int { return len(k.queue) }

// At schedules fire to run at absolute time t.
func (k *Reference) At(t Time, fire func()) Handle {
	return k.schedule(NoOwner, t, fire)
}

// After schedules fire to run d time units from now.
func (k *Reference) After(d Time, fire func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return k.At(k.now+d, fire)
}

// AtOwned is At with an owner tag.
func (k *Reference) AtOwned(owner int, t Time, fire func()) Handle {
	if owner < 0 {
		panic(fmt.Sprintf("sim: invalid event owner %d", owner))
	}
	return k.schedule(owner, t, fire)
}

// AfterOwned is After with an owner tag.
func (k *Reference) AfterOwned(owner int, d Time, fire func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return k.AtOwned(owner, k.now+d, fire)
}

func (k *Reference) schedule(owner int, t Time, fire func()) Handle {
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
	e.bkt = -1
	k.nextSeq++
	heap.Push(&k.queue, e)
	if k.probe != nil {
		k.probe.EventScheduled(k.now, t, owner)
	}
	return Handle{e: e, gen: e.gen}
}

// Cancel removes a scheduled event; stale handles are inert.
func (k *Reference) Cancel(h Handle) {
	if !h.Pending() {
		return
	}
	e := h.e
	heap.Remove(&k.queue, e.idx)
	e.idx = -1
	e.Fire = nil
	k.free = append(k.free, e)
	if k.probe != nil {
		k.probe.EventCancelled(k.now, e.owner)
	}
}

// CancelOwner removes every pending event owned by owner.
func (k *Reference) CancelOwner(owner int) int {
	if owner < 0 {
		return 0
	}
	var victims []*Event
	for _, e := range k.queue {
		if e.owner == owner {
			victims = append(victims, e)
		}
	}
	for _, e := range victims {
		heap.Remove(&k.queue, e.idx)
		e.idx = -1
		e.Fire = nil
		k.free = append(k.free, e)
		if k.probe != nil {
			k.probe.EventCancelled(k.now, e.owner)
		}
	}
	return len(victims)
}

// Step fires the single earliest pending event.
func (k *Reference) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	e := heap.Pop(&k.queue).(*Event)
	k.now = e.At
	k.fired++
	if k.probe != nil {
		k.probe.EventFired(k.now, e.owner)
	}
	e.Fire()
	e.Fire = nil
	k.free = append(k.free, e)
	return true
}

// Run fires events until the queue drains and returns the final time.
func (k *Reference) Run() Time {
	for k.Step() {
	}
	return k.now
}

// RunUntil fires events with timestamps ≤ deadline and advances the clock.
func (k *Reference) RunUntil(deadline Time) bool {
	for len(k.queue) > 0 && k.queue[0].At <= deadline {
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
	return len(k.queue) == 0
}

// RunLimited fires at most maxEvents events.
func (k *Reference) RunLimited(maxEvents int64) bool {
	for i := int64(0); i < maxEvents; i++ {
		if !k.Step() {
			return true
		}
	}
	return len(k.queue) == 0
}
