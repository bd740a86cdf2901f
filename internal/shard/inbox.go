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
// Packets are appended to one per-fabric log, each chained to its
// receiver's previous entry, so a delivery costs an append instead of a
// grow of one of n per-node slices. The chain ends and the listed flags
// live in the run's State (head, tail, listed), written only by the
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
	// log holds this instant's packets in delivery order; next[i] is the
	// reference of the entry after log[i] in its receiver's chain. A
	// reference is a log index plus one, so 0 ends a chain and the
	// zeroed State arrays start out empty.
	log  []Packet
	next []int32
	// nodes lists each node with input this instant once.
	nodes    []int32
	batch    []Packet
	draining bool
}

// add queues p for node n at the current instant. It reports whether
// this is the instant's first input, in which case the caller schedules
// the drain.
func (ib *inbox) add(n int, p Packet) bool {
	first := ib.list(n)
	ib.log = push(ib.log, p)
	ib.next = push(ib.next, 0)
	ref := int32(len(ib.log))
	st := ib.st
	if t := st.tail[n]; t != 0 {
		ib.next[t-1] = ref
	} else {
		st.head[n] = ref
	}
	st.tail[n] = ref
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

// drain wakes every listed node once, in ascending ID order: it gathers
// the node's chain into the reused batch, sorts it by (From, Key), and
// calls a.wake with the node's timer flag. A node that is no longer live
// (a timer re-armed in its dying-gasp instant fires after it went
// silent) loses its inputs. The drained inbox keeps no payload.
func (ib *inbox) drain(f fabric, a app) {
	ib.draining = true
	st := ib.st
	now := f.now()
	slices.Sort(ib.nodes)
	for _, n := range ib.nodes {
		b := ib.batch[:0]
		for ref := st.head[n]; ref != 0; ref = ib.next[ref-1] {
			b = append(b, ib.log[ref-1])
		}
		timer := st.timerFired[n]
		st.head[n], st.tail[n], st.listed[n], st.timerFired[n] = 0, 0, false, false
		if st.liveAt(int(n), now) {
			sortPackets(b)
			a.wake(f, int(n), b, timer)
		}
		clear(b)
		ib.batch = b
	}
	clear(ib.log)
	ib.log, ib.next, ib.nodes = ib.log[:0], ib.next[:0], ib.nodes[:0]
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
