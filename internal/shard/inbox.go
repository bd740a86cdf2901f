package shard

import (
	"fmt"
	"slices"
)

// inbox is one fabric's wake machinery: it holds every input of the
// current instant — packet deliveries and expired timers — until the
// fabric's single drain event for that instant wakes each receiving node
// once.
//
// A transmission's fields are stored once per instant, as one record,
// however many receivers it reaches; each delivery costs one 8-byte
// reference (receiver slot, record) appended to a per-fabric log, plus
// one increment of the receiver's count. The counts and the listed flags
// live in the run's State, indexed by slot and written only by the
// node's owner fabric, so they stay O(n) at any shard count.
//
// One drain per instant sees every input: all inputs of instant t are
// queued before any event at t fires (DESIGN.md §7), and the fabric
// schedules the drain with After(0) at the instant's first input, so the
// drain fires after all of them. No wake can reach its own instant
// (latencies and timer delays are at least 1), so input arriving during
// a drain is a bug and panics.
type inbox struct {
	st *State
	// id maps a slot to its node ID (Partition.ID; the identity on the
	// oracle).
	id []int32
	// recs holds this instant's records, one per transmission that
	// reached a live receiver; log holds one reference per delivery, in
	// delivery order.
	recs []Packet
	log  []delivery
	// nodes lists each node with input this instant once, as its ID in
	// the high 32 bits over its slot, so sorting it sorts by ID.
	nodes []uint64
	// order is the drain's reused scratch: the log's record indices
	// grouped by receiver, each group a wake batch.
	order    []int32
	draining bool
}

// delivery references one record for one receiver slot.
type delivery struct {
	to  int32
	rec int32
}

// add queues p for slot n at the current instant, as one record with one
// reference. It reports whether this is the instant's first input, in
// which case the caller schedules the drain.
func (ib *inbox) add(n int32, p Packet) bool { return ib.ref(n, ib.record(p)) }

// record stores a transmission's packet for the current instant and
// returns its index for ref.
func (ib *inbox) record(p Packet) int32 {
	ib.recs = push(ib.recs, p)
	return int32(len(ib.recs) - 1)
}

// ref queues record rec for slot n; the result is add's.
func (ib *inbox) ref(n, rec int32) bool {
	first := ib.list(n)
	ib.log = push(ib.log, delivery{to: n, rec: rec})
	ib.st.count[n]++
	return first
}

// touch records that slot n's timer expired at the current instant; the
// result is add's.
func (ib *inbox) touch(n int32) bool {
	ib.st.timerFired[n] = true
	return ib.list(n)
}

func (ib *inbox) list(n int32) bool {
	if ib.draining {
		panic(fmt.Sprintf("shard: input for node %d during its instant's drain", ib.id[n]))
	}
	if ib.st.listed[n] {
		return false
	}
	ib.st.listed[n] = true
	ib.nodes = append(ib.nodes, uint64(ib.id[n])<<32|uint64(n))
	return len(ib.nodes) == 1
}

// drain wakes every listed node once, in ascending ID order. It groups
// the log by receiver with a counting sort — the listed nodes' counts,
// prefix-summed in ID order, become offsets into order, and a stable
// scatter keeps each receiver's deliveries in delivery order — then sorts
// each node's group of record indices by (From, Key) and calls a.wake
// with it, the record table and the node's timer flag. A node that is no
// longer live (a timer re-armed in its dying-gasp instant fires after it
// went silent) loses its inputs. The drained inbox keeps no payload.
func (ib *inbox) drain(f fabric, a app) {
	ib.draining = true
	st := ib.st
	now := f.now()
	slices.Sort(ib.nodes)
	var off int32
	for _, v := range ib.nodes {
		n := int32(v)
		c := st.count[n]
		st.count[n] = off
		off += c
	}
	// order follows the log's capacity, so it regrows only when push
	// has doubled the log.
	if cap(ib.order) < len(ib.log) {
		ib.order = make([]int32, cap(ib.log))
	}
	order := ib.order[:len(ib.log)]
	for _, d := range ib.log {
		order[st.count[d.to]] = d.rec
		st.count[d.to]++
	}
	var start int32
	for _, v := range ib.nodes {
		n := int32(v)
		end := st.count[n]
		b := order[start:end]
		start = end
		timer := st.timerFired[n]
		st.count[n], st.listed[n], st.timerFired[n] = 0, false, false
		if st.liveAt(n, now) {
			sortBatch(ib.recs, b)
			a.wake(f, int(v>>32), ib.recs, b, timer)
		}
	}
	clear(ib.recs)
	ib.recs, ib.log, ib.nodes = ib.recs[:0], ib.log[:0], ib.nodes[:0]
	ib.draining = false
}

// push appends v, doubling s's capacity when it is full: append alone
// grows a large slice by about 1.25x, which would reallocate a
// 100k-entry log a dozen times per run.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, len(s)+1)
	}
	return append(s, v)
}
