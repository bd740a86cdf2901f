package shard

import "slices"

// inbox is one fabric's wake machinery: it holds every packet delivery
// of the current instant until the fabric's single drain event for that
// instant wakes each receiving node once.
//
// A transmission is one record and the run of its receivers' slots in
// to, queued by one deliver call, so a delivery costs one slot lookup,
// one 4-byte slot and one count increment. The counts live in State by
// slot, written only by the node's owner fabric; a node is listed at its
// first packet.
//
// One drain per instant sees every packet: all deliveries of instant t
// are queued before any event at t fires (DESIGN.md §7), and the fabric
// schedules the drain with After(0) at the instant's first delivery, so
// the drain fires after all of them. No wake can reach its own instant
// (latencies are at least 1), so a delivery during a drain is a bug and
// panics.
type inbox struct {
	st *State
	// slot maps a node ID to its slot (Partition.Slot; the identity on
	// the oracle).
	slot []int32
	// recs holds this instant's records; record r's receivers are
	// to[start[r]:start[r+1]], the last record's ending at len(to).
	recs  []Packet
	start []int32
	to    []int32
	// nodes lists each node with input this instant once, as its ID in
	// the high 32 bits over its slot, so sorting it sorts by ID.
	nodes []uint64
	// keys and order are the drain's scratch: the records' sort keys, and
	// their indices grouped by receiver, each group a wake batch.
	keys     []uint64
	order    []int32
	draining bool
}

// deliver stores a transmission's packet for the current instant as one
// record and queues it for each receiver in ids, mapped to its slot. It
// reports whether the instant's node list went from empty to non-empty,
// for which the caller schedules the drain.
func (ib *inbox) deliver(p Packet, ids []int32) bool {
	if ib.draining {
		panic("shard: transmission during its instant's drain")
	}
	ib.recs = push(ib.recs, p)
	base := len(ib.to)
	ib.start = push(ib.start, int32(base))
	if base+len(ids) > cap(ib.to) {
		ib.to = slices.Grow(ib.to, cap(ib.to)+len(ids)) // at least double, as push does
	}
	ib.to = ib.to[:base+len(ids)]
	run := ib.to[base:][:len(ids)] // len(ids) long, so run[k] needs no bounds check
	first := len(ib.nodes) == 0
	count, slot := ib.st.count, ib.slot
	for k, id := range ids {
		n := slot[id]
		run[k] = n
		count[n]++
		if count[n] == 1 {
			ib.nodes = append(ib.nodes, uint64(id)<<32|uint64(n))
		}
	}
	return first && len(ib.nodes) > 0
}

// drain wakes every listed node once, in ascending ID order. A counting
// sort groups the receivers by node: the listed nodes' counts, summed in
// ID order, become offsets into order, and the records' runs scatter in
// (From, Key) order, so every batch comes out sorted. Each node's one
// liveness verdict goes to f.land with its batch; only a live node's
// batch goes on to a.wake. The drained inbox keeps no payload.
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
	// order follows to's capacity, so it regrows only when push has
	// doubled to.
	if cap(ib.order) < len(ib.to) {
		ib.order = make([]int32, cap(ib.to))
	}
	order := ib.order[:len(ib.to)]
	ib.start = push(ib.start, int32(len(ib.to)))
	for _, k := range ib.sortRecs() {
		r := int32(uint32(k))
		for _, n := range ib.to[ib.start[r]:ib.start[r+1]] {
			order[st.count[n]] = r
			st.count[n]++
		}
	}
	var begin int32
	for _, v := range ib.nodes {
		n := int32(v)
		end := st.count[n]
		b := order[begin:end]
		begin = end
		st.count[n] = 0
		live := st.liveAt(n, now)
		f.land(n, ib.recs, b, live)
		if live {
			a.wake(f, int(v>>32), ib.recs, b)
		}
	}
	clear(ib.recs)
	ib.recs, ib.start, ib.to, ib.nodes = ib.recs[:0], ib.start[:0], ib.to[:0], ib.nodes[:0]
	ib.draining = false
}

// sortRecs returns the record indices in (From, Key) order, each the
// low 32 bits of a key over its sender: one sort of the keys orders them
// by sender, then an insertion pass orders each sender's few records by
// Key.
func (ib *inbox) sortRecs() []uint64 {
	if cap(ib.keys) < len(ib.recs) {
		ib.keys = make([]uint64, cap(ib.recs))
	}
	keys := ib.keys[:len(ib.recs)]
	for r := range ib.recs {
		keys[r] = uint64(ib.recs[r].From)<<32 | uint64(r)
	}
	slices.Sort(keys)
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j]>>32 == keys[j-1]>>32 &&
			ib.recs[uint32(keys[j])].Key < ib.recs[uint32(keys[j-1])].Key; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
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
