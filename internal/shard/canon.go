package shard

import (
	"cmp"
	"slices"
	"strings"

	"wsnva/internal/trace"
)

// canonicalOrder returns pointers to a trace's events in canonical
// order: sorted by every payload field (everything except Seq, see
// cmpEvents). Two runs that emitted the same multiset of events — in
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

// cmpEvents orders events by every payload field in turn — At, Kind,
// ID, Peer, Bytes, Detail, Node, Col, Row, PeerCol, PeerRow, Level — in
// one walk that stops at the first field that differs.
func cmpEvents(a, b *trace.Event) int {
	switch {
	case a.At != b.At:
		return cmp.Compare(a.At, b.At)
	case a.Kind != b.Kind:
		return cmp.Compare(a.Kind, b.Kind)
	case a.ID != b.ID:
		return cmp.Compare(a.ID, b.ID)
	case a.Peer != b.Peer:
		return strings.Compare(a.Peer, b.Peer)
	case a.Bytes != b.Bytes:
		return cmp.Compare(a.Bytes, b.Bytes)
	case a.Detail != b.Detail:
		return strings.Compare(a.Detail, b.Detail)
	case a.Node != b.Node:
		return strings.Compare(a.Node, b.Node)
	case a.Col != b.Col:
		return cmp.Compare(a.Col, b.Col)
	case a.Row != b.Row:
		return cmp.Compare(a.Row, b.Row)
	case a.PeerCol != b.PeerCol:
		return cmp.Compare(a.PeerCol, b.PeerCol)
	case a.PeerRow != b.PeerRow:
		return cmp.Compare(a.PeerRow, b.PeerRow)
	}
	return cmp.Compare(a.Level, b.Level)
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
