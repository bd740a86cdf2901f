package trace

import (
	"bytes"
	"strings"
	"testing"
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
