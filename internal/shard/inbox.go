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
// reference (receiver, record) appended to a per-fabric log, plus one
// increment of the receiver's count. The counts and the listed flags live
// in the run's State, written only by the node's owner fabric, so they
// stay O(n) at any shard count.
//
// One drain per instant sees every input: all inputs of instant t are
// queued before any event at t fires (DESIGN.md §7), and the fabric
// schedules the drain with After(0) at the instant's first input, so the
// drain fires after all of them. No wake can reach its own instant
// (latencies and timer delays are at least 1), so input arriving during
// a drain is a bug and panics.
type inbox struct {
	st *State
	// recs holds this instant's records, one per transmission that
	// reached a live receiver; log holds one reference per delivery, in
	// delivery order.
	recs []Packet
	log  []delivery
	// nodes lists each node with input this instant once.
	nodes []int32
	// order and batch are the drain's reused scratch: order holds the
	// log's record indices grouped by receiver, batch one node's packets.
	order    []int32
	batch    []Packet
	draining bool
}

// delivery references one record for one receiver.
type delivery struct {
	to  int32
	rec int32
}

// add queues p for node n at the current instant, as one record with one
// reference. It reports whether this is the instant's first input, in
// which case the caller schedules the drain.
func (ib *inbox) add(n int, p Packet) bool { return ib.ref(n, ib.record(p)) }

// record stores a transmission's packet for the current instant and
// returns its index for ref.
func (ib *inbox) record(p Packet) int32 {
	ib.recs = push(ib.recs, p)
	return int32(len(ib.recs) - 1)
}

// ref queues record rec for node n; the result is add's.
func (ib *inbox) ref(n int, rec int32) bool {
	first := ib.list(n)
	ib.log = push(ib.log, delivery{to: int32(n), rec: rec})
	ib.st.count[n]++
	return first
}

// touch records that node n's timer expired at the current instant; the
// result is add's.
func (ib *inbox) touch(n int) bool {
	ib.st.timerFired[n] = true
	return ib.list(n)
}

func (ib *inbox) list(n int) bool {
	if ib.draining {
		panic(fmt.Sprintf("shard: input for node %d during its instant's drain", n))
	}
	if ib.st.listed[n] {
		return false
	}
	ib.st.listed[n] = true
	ib.nodes = append(ib.nodes, int32(n))
	return len(ib.nodes) == 1
}

// drain wakes every listed node once, in ascending ID order. It groups
// the log by receiver with a counting sort — the listed nodes' counts,
// prefix-summed in ID order, become offsets into order, and a stable
// scatter keeps each receiver's deliveries in delivery order — then
// gathers each node's records into the reused batch, sorts it by
// (From, Key), and calls a.wake with the node's timer flag. A node that
// is no longer live (a timer re-armed in its dying-gasp instant fires
// after it went silent) loses its inputs. The drained inbox keeps no
// payload.
func (ib *inbox) drain(f fabric, a app) {
	ib.draining = true
	st := ib.st
	now := f.now()
	slices.Sort(ib.nodes)
	var off int32
	for _, n := range ib.nodes {
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
	for _, n := range ib.nodes {
		end := st.count[n]
		b := ib.batch[:0]
		for _, r := range order[start:end] {
			b = append(b, ib.recs[r])
		}
		start = end
		timer := st.timerFired[n]
		st.count[n], st.listed[n], st.timerFired[n] = 0, false, false
		if st.liveAt(int(n), now) {
			sortPackets(b)
			a.wake(f, int(n), b, timer)
		}
		clear(b)
		ib.batch = b
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
