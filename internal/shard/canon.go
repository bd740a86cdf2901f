package shard

import (
	"slices"

	"wsnva/internal/trace"
)

// canonicalOrder returns pointers to a trace's events in canonical
// order: sorted by every payload field (everything except Seq, see
// eventLess). Two runs that emitted the same multiset of events — in
// any order — put them in identical order, which is how a sharded run's
// per-shard logs merge into something byte-comparable against the
// oracle's single log. The comparator is total over distinct events, and
// identical duplicates are interchangeable, so the result does not
// depend on the input order at all. One sort moves 8-byte pointers,
// never the 128-byte events.
func canonicalOrder(logs [][]trace.Event) []*trace.Event {
	n := 0
	for _, l := range logs {
		n += len(l)
	}
	order := make([]*trace.Event, 0, n)
	for _, l := range logs {
		for i := range l {
			order = append(order, &l[i])
		}
	}
	slices.SortFunc(order, cmpEvents)
	return order
}

// cmpEvents is eventLess as a three-way comparison, for slices.SortFunc.
func cmpEvents(a, b *trace.Event) int {
	switch {
	case eventLess(a, b):
		return -1
	case eventLess(b, a):
		return 1
	}
	return 0
}

func eventLess(a, b *trace.Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	if a.Peer != b.Peer {
		return a.Peer < b.Peer
	}
	if a.Bytes != b.Bytes {
		return a.Bytes < b.Bytes
	}
	if a.Detail != b.Detail {
		return a.Detail < b.Detail
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Col != b.Col {
		return a.Col < b.Col
	}
	if a.Row != b.Row {
		return a.Row < b.Row
	}
	if a.PeerCol != b.PeerCol {
		return a.PeerCol < b.PeerCol
	}
	if a.PeerRow != b.PeerRow {
		return a.PeerRow < b.PeerRow
	}
	return a.Level < b.Level
}

// encodeCanonical renders the logs' events as canonical JSONL: in
// canonicalOrder, each re-stamped with its position as Seq, into one
// buffer reserved up front (see encodedSize).
func encodeCanonical(logs [][]trace.Event) []byte {
	order := canonicalOrder(logs)
	if len(order) == 0 {
		return nil
	}
	buf := make([]byte, 0, encodedSize(order))
	var e trace.Event
	for i, p := range order {
		e = *p
		e.Seq = int64(i)
		buf = trace.AppendJSONL(buf, &e)
	}
	return buf
}

// encodedSize estimates the canonical encoding's length from up to 64
// lines spread evenly over order, plus a margin of 1/32, so the buffer
// is allocated once and a trace kept in a cache holds little spare
// capacity. An estimate that falls short costs one regrowth.
func encodedSize(order []*trace.Event) int {
	step := max(len(order)/64, 1)
	var line []byte
	sum, lines := 0, 0
	for i := 0; i < len(order); i += step {
		e := *order[i]
		e.Seq = int64(i)
		line = trace.AppendJSONL(line[:0], &e)
		sum += len(line)
		lines++
	}
	return sum*len(order)/lines*33/32 + 256
}
