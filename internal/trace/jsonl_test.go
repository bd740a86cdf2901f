package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"wsnva/internal/sim"
)

func sampleEvents() []Event {
	return []Event{
		{Seq: 0, At: 1, Kind: Send, Node: "<0,0>", ID: -1, Col: 0, Row: 0,
			PeerCol: 1, PeerRow: 0, Level: 1, Bytes: 4, Peer: "<1,0>", Detail: "route"},
		{Seq: 1, At: 2, Kind: Tx, Node: "#3", ID: 3, Col: -1, Row: -1,
			PeerCol: -1, PeerRow: -1, Bytes: 4},
		{Seq: 2, At: 2, Kind: Phase, ID: -1, Col: -1, Row: -1,
			PeerCol: -1, PeerRow: -1, Detail: "emul-round:start"},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	if err := Encode(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d: %+v != %+v", i, got[i], events[i])
		}
	}
}

func TestEncodeIsByteDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := Encode(&a, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two encodings of the same events differ")
	}
	if !strings.HasSuffix(a.String(), "\n") {
		t.Error("encoding must be newline-terminated")
	}
}

func TestDecodeSkipsBlankLines(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleEvents()[:1]); err != nil {
		t.Fatal(err)
	}
	input := "\n  \n" + buf.String() + "\n\n"
	got, err := Decode(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("decoded %d events, want 1", len(got))
	}
}

func TestDecodeReportsLineNumber(t *testing.T) {
	input := `{"seq":0,"at":1,"kind":0,"id":-1,"col":-1,"row":-1,"pcol":-1,"prow":-1,"level":0,"bytes":0}
not json at all
`
	_, err := Decode(strings.NewReader(input))
	if err == nil {
		t.Fatal("malformed line must fail")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q does not name line 2", err)
	}
}

func TestDecodeIgnoresUnknownFields(t *testing.T) {
	input := `{"seq":7,"at":3,"kind":1,"node":"x","id":-1,"col":-1,"row":-1,"pcol":-1,"prow":-1,"level":0,"bytes":2,"future_field":"ignored"}
`
	got, err := Decode(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Seq != 7 || got[0].Kind != Deliver || got[0].Bytes != 2 {
		t.Errorf("decoded %+v", got)
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := New()
	tr.EmitEvent(Event{At: 1, Kind: Send, Node: "a", ID: -1,
		Col: -1, Row: -1, PeerCol: -1, PeerRow: -1, Bytes: 4, Peer: "b"})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Node != "a" || got[0].Peer != "b" {
		t.Errorf("round trip through tracer export: %+v", got)
	}
}

// FuzzDecode feeds arbitrary bytes to the JSONL decoder: it must never
// panic, and any stream it accepts must re-encode and re-decode to the
// same events (the round-trip law tracecat and the golden tests rely on).
func FuzzDecode(f *testing.F) {
	var seed bytes.Buffer
	_ = Encode(&seed, sampleEvents())
	f.Add(seed.Bytes())
	f.Add([]byte(""))
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{"kind":9999,"at":-5,"bytes":-1}` + "\n"))
	f.Add([]byte(`{"node":"` + strings.Repeat("x", 100) + `"}`))
	f.Add([]byte("{"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Encode(&buf, events); err != nil {
			t.Fatalf("re-encode of accepted stream failed: %v", err)
		}
		again, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed event count: %d != %d", len(again), len(events))
		}
		for i := range events {
			if again[i] != events[i] {
				t.Fatalf("round trip changed event %d: %+v != %+v", i, again[i], events[i])
			}
		}
	})
}

// jsonOracle is the encoding AppendJSONL must reproduce byte for byte:
// encoding/json's Encoder under SetEscapeHTML(false), one event per line.
func jsonOracle(t testing.TB, events []Event) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// hostileStrings are strings encoding/json escapes, or deliberately
// leaves alone under SetEscapeHTML(false).
func hostileStrings() []string {
	var ctl strings.Builder
	for b := 0; b < 0x20; b++ {
		ctl.WriteByte(byte(b))
	}
	return []string{
		"", ctl.String(), `"`, `\`, `"quoted\"`, "\x7f", "<a href=\"x\">&amp;</a>",
		"\xff", "\xc3", "\xe2\x80", "a\xffb\xfe", "\xed\xa0\x80",
		"\u2028", "\u2029", "x\u2028y\u2029z", "\ufffd", "é, 中文, 🙂",
		"#17", "<3,4>", "tab\there\nnewline\r\f\b",
	}
}

// randString draws a short string mixing hostile fragments and random
// bytes (valid UTF-8 or not).
func randString(rng *rand.Rand, hostile []string) string {
	var b strings.Builder
	for k := rng.Intn(4); k > 0; k-- {
		if rng.Intn(2) == 0 {
			b.WriteString(hostile[rng.Intn(len(hostile))])
			continue
		}
		for m := rng.Intn(6); m > 0; m-- {
			b.WriteByte(byte(rng.Intn(256)))
		}
	}
	return b.String()
}

// randInt draws extremes, small values of both signs and random words.
func randInt(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return []int64{math.MinInt64, math.MaxInt64, math.MinInt32, math.MaxInt32, -1, 0, 1}[rng.Intn(7)]
	case 1:
		return int64(rng.Intn(2001) - 1000)
	default:
		return int64(rng.Uint64())
	}
}

// TestAppendJSONLMatchesEncodingJSON holds the appending encoder to
// encoding/json over random events: extreme and negative ints, empty
// strings, every control byte, quotes, backslashes, invalid UTF-8,
// U+2028/U+2029 and <>&.
func TestAppendJSONLMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	hostile := hostileStrings()
	events := sampleEvents()
	for _, s := range hostile {
		events = append(events, Event{Node: s, Peer: s, Detail: s})
	}
	for i := 0; i < 3000; i++ {
		events = append(events, Event{
			Seq: randInt(rng), At: sim.Time(randInt(rng)), Kind: Kind(randInt(rng)),
			Node: randString(rng, hostile), ID: int(randInt(rng)),
			Col: int(randInt(rng)), Row: int(randInt(rng)),
			PeerCol: int(randInt(rng)), PeerRow: int(randInt(rng)),
			Level: int(randInt(rng)), Bytes: randInt(rng),
			Peer: randString(rng, hostile), Detail: randString(rng, hostile),
		})
	}
	for i := range events {
		want := jsonOracle(t, events[i:i+1])
		if got := AppendJSONL(nil, &events[i]); !bytes.Equal(got, want) {
			t.Fatalf("event %+v:\n got %q\nwant %q", events[i], got, want)
		}
	}
	var buf bytes.Buffer
	if err := Encode(&buf, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), jsonOracle(t, events)) {
		t.Fatal("Encode differs from encoding/json over the whole stream")
	}
}

// TestEncodeWritesInBlocks: a stream longer than Encode's block reaches
// the writer in several writes and still equals the oracle.
func TestEncodeWritesInBlocks(t *testing.T) {
	events := make([]Event, 2000)
	for i := range events {
		events[i] = Event{Seq: int64(i), At: sim.Time(i / 7), Kind: Rx, Node: NodeName(i), ID: i,
			Col: -1, Row: -1, PeerCol: -1, PeerRow: -1, Bytes: 2, Peer: NodeName(i + 1), Detail: "broadcast"}
	}
	w := &countingWriter{}
	if err := Encode(w, events); err != nil {
		t.Fatal(err)
	}
	if w.writes < 2 {
		t.Errorf("Encode wrote %d times, want several blocks", w.writes)
	}
	if !bytes.Equal(w.buf.Bytes(), jsonOracle(t, events)) {
		t.Fatal("blocked Encode differs from encoding/json")
	}
	if err := Encode(failingWriter{}, events[:1]); err == nil {
		t.Error("a failing writer must fail Encode")
	}
}

type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errFailingWriter }

var errFailingWriter = errors.New("write refused")

// FuzzEncode holds AppendJSONL to encoding/json on fuzzed field values
// and checks that the line decodes back to the event whenever each of
// its strings is valid UTF-8 (an invalid byte is written as U+FFFD).
func FuzzEncode(f *testing.F) {
	for _, e := range sampleEvents() {
		f.Add(e.Seq, int64(e.At), int64(e.Kind), e.Node, int64(e.ID), int64(e.Level), e.Bytes, e.Peer, e.Detail)
	}
	for _, s := range hostileStrings() {
		f.Add(int64(math.MinInt64), int64(math.MaxInt64), int64(-1), s, int64(0), int64(-7), int64(1)<<40, s, s)
	}
	f.Fuzz(func(t *testing.T, seq, at, kind int64, node string, id, level, size int64, peer, detail string) {
		e := Event{Seq: seq, At: sim.Time(at), Kind: Kind(kind), Node: node, ID: int(id),
			Col: int(level), Row: int(-level), PeerCol: int(id >> 3), PeerRow: int(size >> 5),
			Level: int(level), Bytes: size, Peer: peer, Detail: detail}
		got := AppendJSONL(nil, &e)
		if want := jsonOracle(t, []Event{e}); !bytes.Equal(got, want) {
			t.Fatalf("got %q\nwant %q", got, want)
		}
		if !utf8.ValidString(node) || !utf8.ValidString(peer) || !utf8.ValidString(detail) {
			return
		}
		back, err := Decode(bytes.NewReader(got))
		if err != nil || len(back) != 1 || back[0] != e {
			t.Fatalf("round trip of %q: %+v, %v", got, back, err)
		}
	})
}
