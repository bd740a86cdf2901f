package trace

import (
	"testing"

	"wsnva/internal/geom"
	"wsnva/internal/sim"
)

// TestBuilders pins each plane's builder field by field, since every
// golden trace and the shard engine's byte parity with its oracle rest on
// them: the node plane (the radio and shard engine, the ledger and battery
// bank, emul's repair audit), the cell plane with a grid index (varch,
// synth, the goroutine runtime) and with ID -1 (emul's virtual plane),
// the run plane (phase and churn markers) and the kernel probe's owned
// events. The sink must receive the same event the log keeps, and a nil
// tracer must ignore every builder.
func TestBuilders(t *testing.T) {
	for _, tc := range []struct {
		name string
		emit func(*Tracer)
		want Event
	}{
		{"node/no-peer", func(tr *Tracer) { tr.EmitNode(7, Charge, 12, -1, 0, 30, "tx") },
			Event{At: 7, Kind: Charge, Node: "#12", ID: 12,
				Col: -1, Row: -1, PeerCol: -1, PeerRow: -1, Bytes: 30, Detail: "tx"}},
		{"node/peer", func(tr *Tracer) { tr.EmitNode(9, Rx, 3, 0, 0, 2, "") },
			Event{At: 9, Kind: Rx, Node: "#3", ID: 3,
				Col: -1, Row: -1, PeerCol: -1, PeerRow: -1, Bytes: 2, Peer: "#0"}},
		{"node/level", func(tr *Tracer) { tr.EmitNode(4, Repair, 40, -1, 2, 0, "table rebroadcast") },
			Event{At: 4, Kind: Repair, Node: "#40", ID: 40,
				Col: -1, Row: -1, PeerCol: -1, PeerRow: -1, Level: 2, Detail: "table rebroadcast"}},
		{"node/beyond-table", func(tr *Tracer) { tr.EmitNode(1, Drop, maxNamed+5, maxNamed, 0, 2, "lost") },
			Event{At: 1, Kind: Drop, Node: "#32773", ID: maxNamed + 5,
				Col: -1, Row: -1, PeerCol: -1, PeerRow: -1, Bytes: 2, Peer: "#32768", Detail: "lost"}},
		{"cell/index-peer", func(tr *Tracer) {
			tr.EmitCell(5, Send, geom.Coord{Col: 1, Row: 2}, 9, geom.Coord{Col: 0, Row: 2}, 1, 4, "")
		}, Event{At: 5, Kind: Send, Node: "<1,2>", ID: 9, Col: 1, Row: 2,
			PeerCol: 0, PeerRow: 2, Level: 1, Bytes: 4, Peer: "<0,2>"}},
		{"cell/no-cell", func(tr *Tracer) {
			tr.EmitCell(6, Protocol, geom.Coord{Col: 3, Row: 0}, 3, NoCell, 2, 0, "watchdog promote")
		}, Event{At: 6, Kind: Protocol, Node: "<3,0>", ID: 3, Col: 3, Row: 0,
			PeerCol: -1, PeerRow: -1, Level: 2, Detail: "watchdog promote"}},
		{"cell/virtual-beside-physical", func(tr *Tracer) {
			tr.EmitCell(8, Drop, geom.Coord{Col: 2, Row: 3}, -1, geom.Coord{Col: 2, Row: 2}, 0, 6, "unrouted: no forward path")
		}, Event{At: 8, Kind: Drop, Node: "<2,3>", ID: -1, Col: 2, Row: 3,
			PeerCol: 2, PeerRow: 2, Bytes: 6, Peer: "<2,2>", Detail: "unrouted: no forward path"}},
		{"cell/half-peer", func(tr *Tracer) {
			tr.EmitCell(0, Deliver, geom.Coord{Col: 0, Row: 0}, 0, geom.Coord{Col: 4, Row: -1}, 0, 1, "")
		}, Event{Kind: Deliver, Node: "<0,0>", ID: 0, Col: 0, Row: 0,
			PeerCol: 4, PeerRow: -1, Bytes: 1}},
		{"run/phase", func(tr *Tracer) { tr.EmitRun(0, Phase, 0, "runtime-round:start") },
			Event{Kind: Phase, ID: -1, Col: -1, Row: -1, PeerCol: -1, PeerRow: -1,
				Detail: "runtime-round:start"}},
		{"run/churn", func(tr *Tracer) { tr.EmitRun(50, Churn, 3, "disturbance") },
			Event{At: 50, Kind: Churn, ID: -1, Col: -1, Row: -1, PeerCol: -1, PeerRow: -1,
				Bytes: 3, Detail: "disturbance"}},
		{"kernel/schedule", func(tr *Tracer) { KernelProbe(tr).EventScheduled(2, 11, 5) },
			Event{At: 2, Kind: Schedule, ID: 5, Col: -1, Row: -1, PeerCol: -1, PeerRow: -1, Bytes: 11}},
		{"kernel/fire-unowned", func(tr *Tracer) { KernelProbe(tr).EventFired(11, sim.NoOwner) },
			Event{At: 11, Kind: Fire, ID: -1, Col: -1, Row: -1, PeerCol: -1, PeerRow: -1}},
		{"kernel/cancel", func(tr *Tracer) { KernelProbe(tr).EventCancelled(3, 8) },
			Event{At: 3, Kind: Cancel, ID: 8, Col: -1, Row: -1, PeerCol: -1, PeerRow: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := New()
			sink := &collectSink{}
			tr.SetSink(sink)
			tr.emit(Event{Kind: Phase}) // so the built event is Seq 1
			tc.emit(tr)
			want := tc.want
			want.Seq = 1
			if got := tr.Events(); len(got) != 2 || got[1] != want {
				t.Errorf("log holds %+v\nwant %+v", got, want)
			}
			if len(sink.events) != 2 || sink.events[1] != want {
				t.Errorf("sink saw %+v\nwant %+v", sink.events, want)
			}
			var nilT *Tracer
			tc.emit(nilT) // must not panic
		})
	}
}
