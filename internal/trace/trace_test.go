package trace

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"wsnva/internal/sim"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.EmitEvent(Event{At: 1, Kind: Send, Node: "a", Detail: "x"}) // must not panic
	if tr.Count(Send) != 0 {
		t.Error("nil tracer count should be 0")
	}
	if tr.Events() != nil {
		t.Error("nil tracer events should be nil")
	}
}

func TestEmitAndEvents(t *testing.T) {
	tr := New()
	tr.EmitEvent(Event{At: 1, Kind: Send, Node: "<0,0>", Detail: "-> <1,0>"})
	tr.EmitEvent(Event{At: 3, Kind: Deliver, Node: "<1,0>", Detail: "<- <0,0>"})
	tr.EmitEvent(Event{At: 3, Kind: RuleFire, Node: "<1,0>", Detail: "receive"})
	evts := tr.Events()
	if len(evts) != 3 {
		t.Fatalf("got %d events", len(evts))
	}
	if evts[0].Kind != Send || evts[0].At != 1 {
		t.Errorf("first event = %+v", evts[0])
	}
	if tr.Count(Send) != 1 || tr.Count(Deliver) != 1 || tr.Count(Compute) != 0 {
		t.Error("counts wrong")
	}
}

func TestTimeline(t *testing.T) {
	tr := New()
	tr.EmitEvent(Event{At: 5, Kind: Exfiltrate, Node: "<0,0>", Detail: "final summary"})
	line := Timeline(tr.Events())
	for _, want := range []string{"t=5", "exfil", "<0,0>", "final summary"} {
		if !strings.Contains(line, want) {
			t.Errorf("timeline missing %q: %q", want, line)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		Send: "send", Deliver: "deliver", Compute: "compute",
		Sense: "sense", RuleFire: "rule", Exfiltrate: "exfil", Protocol: "proto",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestStructuredKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		Schedule: "sched", Fire: "fire", Cancel: "cancel",
		Tx: "tx", Rx: "rx", Drop: "drop", Retry: "retry", Ack: "ack",
		Failover: "failover", GroupOp: "group", Phase: "phase",
		Charge: "charge", Deplete: "deplete", Death: "death",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind renders as %q", got)
	}
}

func TestNilTracerStructuredPaths(t *testing.T) {
	var tr *Tracer
	tr.EmitEvent(Event{Kind: Tx})
	if err := tr.WriteJSONL(&strings.Builder{}); err != nil {
		t.Errorf("nil WriteJSONL: %v", err)
	}
}

// TestConcurrentEmit hammers one tracer from many goroutines; run under
// -race this pins the mutex discipline the goroutine runtime relies on.
// Every event lands in the log, and event i carries Seq i.
func TestConcurrentEmit(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.EmitEvent(Event{Kind: Send, ID: w, Bytes: int64(i)})
			}
		}()
	}
	wg.Wait()
	if tr.Count(Send) != workers*per {
		t.Errorf("Count = %d, want %d", tr.Count(Send), workers*per)
	}
	evts := tr.Events()
	if len(evts) != workers*per {
		t.Fatalf("log holds %d events, want %d", len(evts), workers*per)
	}
	for i, e := range evts {
		if e.Seq != int64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
}

// TestEventsReturnsACopy: a caller may sort or overwrite what Events
// returns (the shard oracle's canonical encoding sorts it in place)
// without touching the tracer's log.
func TestEventsReturnsACopy(t *testing.T) {
	tr := New()
	for i := 0; i < 3; i++ {
		tr.EmitEvent(Event{At: sim.Time(i), Kind: Tx, ID: i})
	}
	got := tr.Events()
	got[0] = Event{Kind: Drop, ID: 99}
	got[1], got[2] = got[2], got[1]
	for i, e := range tr.Events() {
		if e.Seq != int64(i) || e.ID != i || e.Kind != Tx {
			t.Errorf("log event %d = %+v after mutating a copy", i, e)
		}
	}
}

// TestTakeHandsOverTheLog: Take returns the chunks Events would have
// copied, across several chunks, and leaves an empty tracer whose next
// event starts again at Seq 0.
func TestTakeHandsOverTheLog(t *testing.T) {
	tr := New()
	const n = 3*maxChunk + 17
	for i := 0; i < n; i++ {
		tr.EmitEvent(Event{At: sim.Time(i / 3), Kind: Rx, ID: i})
	}
	want := tr.Events()
	chunks := tr.Take()
	if len(chunks) < 4 {
		t.Errorf("%d events in %d chunks, want at least 4", n, len(chunks))
	}
	var got []Event
	for _, c := range chunks {
		if len(c) > maxChunk {
			t.Errorf("chunk of %d events exceeds %d", len(c), maxChunk)
		}
		got = append(got, c...)
	}
	if len(got) != len(want) {
		t.Fatalf("Take handed over %d events, Events copied %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d: Take %+v, Events %+v", i, got[i], want[i])
		}
	}
	if tr.Count(Rx) != 0 || len(tr.Events()) != 0 || tr.Take() != nil {
		t.Error("a tracer must be empty after Take")
	}
	tr.EmitEvent(Event{Kind: Tx})
	if e := tr.Events(); len(e) != 1 || e[0].Seq != 0 {
		t.Errorf("first event after Take: %+v", e)
	}
	var nilT *Tracer
	if nilT.Take() != nil {
		t.Error("nil tracer Take must be nil")
	}
}

// TestNodeName: the shared names equal the formatted ones below, across
// and beyond the table, from concurrent callers.
func TestNodeName(t *testing.T) {
	ids := []int{-7, -1, 0, 1, 9, 10, 1023, 1024, 5000, maxNamed - 1, maxNamed, maxNamed + 3}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, id := range ids {
				if got, want := NodeName(id), "#"+strconv.Itoa(id); got != want {
					t.Errorf("NodeName(%d) = %q, want %q", id, got, want)
				}
			}
		}()
	}
	wg.Wait()
	for id := 0; id < 3000; id++ {
		if got, want := NodeName(id), "#"+strconv.Itoa(id); got != want {
			t.Fatalf("NodeName(%d) = %q, want %q", id, got, want)
		}
	}
}

func TestDescribe(t *testing.T) {
	e := Event{Peer: "<1,0>", Level: 2, Bytes: 8, Detail: "route"}
	got := e.Describe()
	for _, want := range []string{"peer=<1,0>", "level=2", "bytes=8", "route"} {
		if !strings.Contains(got, want) {
			t.Errorf("Describe() = %q missing %q", got, want)
		}
	}
	if (Event{}).Describe() != "" {
		t.Error("empty event must describe as empty")
	}
}

func TestKernelProbe(t *testing.T) {
	tr := New()
	k := sim.New()
	k.SetProbe(KernelProbe(tr))
	fired := false
	id := k.At(5, func() { fired = true })
	k.At(9, func() {})
	_ = id
	k.Run()
	if !fired {
		t.Fatal("scheduled event did not fire")
	}
	if tr.Count(Schedule) != 2 {
		t.Errorf("Schedule count = %d, want 2", tr.Count(Schedule))
	}
	if tr.Count(Fire) != 2 {
		t.Errorf("Fire count = %d, want 2", tr.Count(Fire))
	}
	// Schedule events are stamped at emission time with the target in
	// Bytes, keeping the stream time-monotone.
	for _, e := range tr.Events() {
		if e.Kind == Schedule && e.At != 0 {
			t.Errorf("Schedule stamped at t=%d, want emission time 0", e.At)
		}
		if e.Kind == Schedule && e.Bytes != 5 && e.Bytes != 9 {
			t.Errorf("Schedule target = %d", e.Bytes)
		}
	}
}

// collectSink records every forwarded event, proving the sink sees the
// same sequence-stamped stream the log keeps.
type collectSink struct{ events []Event }

func (c *collectSink) TraceEvent(e Event) { c.events = append(c.events, e) }

func TestSinkReceivesLiveEvents(t *testing.T) {
	tr := New()
	sink := &collectSink{}
	tr.SetSink(sink)
	for i := 0; i < 5; i++ {
		tr.EmitEvent(Event{At: sim.Time(i), Kind: Send, Node: "n", Detail: "x"})
	}
	if len(sink.events) != 5 {
		t.Fatalf("sink saw %d events, want 5", len(sink.events))
	}
	for i, e := range sink.events {
		if e.Seq != int64(i) {
			t.Errorf("event %d has seq %d, want %d", i, e.Seq, i)
		}
	}
	tr.SetSink(nil)
	tr.EmitEvent(Event{At: 9, Kind: Send, Node: "n", Detail: "x"})
	if len(sink.events) != 5 {
		t.Errorf("detached sink still saw events")
	}
	// nil-tracer safety mirrors the rest of the API.
	var nilT *Tracer
	nilT.SetSink(sink)
}
