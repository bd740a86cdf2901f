package shard

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"testing"

	"wsnva/internal/sim"
	"wsnva/internal/trace"
)

// oracleLess is the canonical comparator as the engine first defined
// it, kept apart from eventLess: a change to the engine's order then
// fails TestCanonicalOrderMatchesOracle instead of moving the oracle
// along with it.
func oracleLess(a, b *trace.Event) bool {
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

// oracleCanonical is the canonical trace by the engine's original path:
// one sort.Slice of the whole event slice with oracleLess, Seq
// re-stamped, then encoding/json. It sorts evs in place.
func oracleCanonical(t testing.TB, evs []trace.Event) []byte {
	t.Helper()
	sort.Slice(evs, func(i, j int) bool { return oracleLess(&evs[i], &evs[j]) })
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	for i := range evs {
		evs[i].Seq = int64(i)
		if err := enc.Encode(&evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// randCanonEvent draws an event from small domains, so that equal
// instants, and events equal in every field but one, are common. One
// event in 40 carries a negative or very large Kind or ID.
func randCanonEvent(rng *rand.Rand) trace.Event {
	names := []string{"", "#1", "#12", "#123", "#45", "#2"}
	details := []string{"", "lost", "broadcast", "dead receiver", "asleep receiver"}
	if rng.Intn(40) == 0 {
		e := randCanonEvent(rng)
		wide := []int{-3, -2, 1 << 24, 1<<24 + 1, 1 << 40}
		if rng.Intn(2) == 0 {
			e.ID = wide[rng.Intn(len(wide))]
		} else {
			e.Kind = trace.Kind(wide[rng.Intn(len(wide))]) >> 16
		}
		return e
	}
	return trace.Event{
		Seq:     rng.Int63n(1000),
		At:      sim.Time(rng.Intn(6)),
		Kind:    trace.Tx + trace.Kind(rng.Intn(3)),
		Node:    names[rng.Intn(len(names))],
		ID:      rng.Intn(4) - 1,
		Col:     rng.Intn(3) - 1,
		Row:     rng.Intn(3) - 1,
		PeerCol: rng.Intn(3) - 1,
		PeerRow: rng.Intn(3) - 1,
		Level:   rng.Intn(2),
		Bytes:   int64(rng.Intn(3)),
		Peer:    names[rng.Intn(len(names))],
		Detail:  details[rng.Intn(len(details))],
	}
}

// splitRuns deals evs over logs: each event goes to a random one of
// `logs` logs, keeping evs' order within each, and each log is then cut
// into chunks at random points, the way Tracer.Take hands a log over.
func splitRuns(rng *rand.Rand, evs []trace.Event, logs int) [][]trace.Event {
	per := make([][]trace.Event, logs)
	for _, e := range evs {
		k := rng.Intn(logs)
		per[k] = append(per[k], e)
	}
	var runs [][]trace.Event
	for _, l := range per {
		for len(l) > 0 {
			c := 1 + rng.Intn(len(l))
			runs = append(runs, l[:c:c])
			l = l[c:]
		}
	}
	return runs
}

// TestCanonicalOrderMatchesOracle: random event multisets, duplicates
// and equal-time ties included, split over 1–8 time-ordered logs in
// chunks, encode to the oracle's bytes; so do logs out of time order.
func TestCanonicalOrderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 600; trial++ {
		evs := make([]trace.Event, rng.Intn(150))
		for i := range evs {
			if i > 0 && rng.Intn(5) == 0 {
				evs[i] = evs[rng.Intn(i)] // an identical duplicate
				continue
			}
			evs[i] = randCanonEvent(rng)
		}
		want := oracleCanonical(t, append([]trace.Event(nil), evs...))

		rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
		ordered := trial%4 != 3
		if ordered {
			sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
		}
		runs := splitRuns(rng, evs, 1+rng.Intn(8))
		if got := encodeCanonical(runs); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (%d events, %d runs, time-ordered %v):\n got %s\nwant %s",
				trial, len(evs), len(runs), ordered, got, want)
		}
	}
}

// TestCanonicalEncodingSizes: the buffer encodeCanonical reserves is
// only a capacity — traces of every size, the empty one included, encode
// to the oracle's bytes — and its estimate leaves little of it spare.
func TestCanonicalEncodingSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	big := make([]trace.Event, 40000)
	for i := range big {
		big[i] = randCanonEvent(rng)
		big[i].At = sim.Time(i / 50)
	}
	for _, evs := range [][]trace.Event{big[:1], big[:3], big[:200], big, nil} {
		want := oracleCanonical(t, append([]trace.Event(nil), evs...))
		got := encodeCanonical([][]trace.Event{evs})
		if !bytes.Equal(got, want) {
			t.Fatalf("%d events: canonical encoding differs from the oracle", len(evs))
		}
		if spare := cap(got) - len(got); spare > len(got)/8+512 {
			t.Errorf("%d events: %d bytes reserved for %d written", len(evs), cap(got), len(got))
		}
	}
}
