package shard

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"wsnva/internal/churn"
	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/fault"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/parallel"
	"wsnva/internal/sim"
	"wsnva/internal/trace"
)

// TestBroadcastOpensOneRecordPerDestinationShard: node 0 sits at the
// center of a 2×2 tiling and its twelve neighbors cycle through the four
// tiles, so its ascending neighbor list alternates destination shards.
// Each broadcast must leave exactly one outbox record per remote shard,
// carrying that shard's receiver IDs in ascending order, and the
// sender's own tile must get nothing in the outbox.
func TestBroadcastOpensOneRecordPerDestinationShard(t *testing.T) {
	tiles := []geom.Point{{X: 12, Y: 12}, {X: 28, Y: 12}, {X: 12, Y: 28}, {X: 28, Y: 28}}
	pts := []geom.Point{{X: 20, Y: 20}}
	for i := 0; i < 12; i++ {
		q := tiles[i%4]
		pts = append(pts, geom.Point{X: q.X + float64(i/4), Y: q.Y})
	}
	nw := deploy.FromPoints(pts, geom.Rect{MaxX: 40, MaxY: 40}, 15)
	if nw.Degree(0) != 12 {
		t.Fatalf("center has %d neighbors, want 12", nw.Degree(0))
	}
	model := cost.NewUniform()
	part := NewPartition(nw, 4)
	eng := newEngine(nw, NewState(nw), part, model, 1, parallel.New(1),
		func(int) app { return &recApp{} }, hazards{})
	src := eng.shards[part.Owner[0]]
	sends := []xrec{{size: 2, key: 7}, {size: 3, key: 8}}
	for _, x := range sends {
		src.broadcast(0, x.size, x.key)
	}
	for dst, row := range eng.cur[src.id] {
		var want []int32
		for _, nbr := range nw.Neighbors(0) {
			if int(part.Owner[nbr]) == dst {
				want = append(want, nbr)
			}
		}
		if dst == src.id {
			if len(row.recs) != 0 || len(row.to) != 0 {
				t.Errorf("shard %d: sender's own tile has %d outbox records", dst, len(row.recs))
			}
			continue
		}
		if len(want) == 0 {
			t.Fatalf("shard %d: no receivers; the placement is wrong", dst)
		}
		if len(row.recs) != len(sends) {
			t.Fatalf("shard %d: %d outbox records for %d broadcasts", dst, len(row.recs), len(sends))
		}
		for i, r := range row.recs {
			x := sends[i]
			at := sim.Time(model.TxLatency(x.size))
			if r.at != at || r.from != 0 || r.size != x.size || r.key != x.key || int(r.n) != len(want) {
				t.Errorf("shard %d record %d = %+v, want at %d from 0 size %d key %d n %d", dst, i, r, at, x.size, x.key, len(want))
			}
			if got := row.to[i*len(want) : (i+1)*len(want)]; !slices.Equal(got, want) {
				t.Errorf("shard %d record %d receivers %v, want %v", dst, i, got, want)
			}
		}
	}
}

// keepEngine is execute that also hands back the engine it ran.
func keepEngine(eng **engine) executor {
	return func(nw *deploy.Network, st *State, model *cost.Model, shards, workers int,
		mkApp func(int) app, hz hazards) runStats {
		*eng = newEngine(nw, st, NewPartition(nw, shards), model, sim.Time(model.TxLatency(1)),
			parallel.New(workers), mkApp, hz)
		return (*eng).execute()
	}
}

// TestInjectedOutboxHoldsNoPayload: after a 4-shard labeling run, whose
// cross-shard unicasts carry summaries, no outbox row still references a
// payload anywhere in its capacity.
func TestInjectedOutboxHoldsNoPayload(t *testing.T) {
	grid := geom.NewSquareGrid(16, 160)
	bits := make([]bool, grid.N())
	for i := range bits {
		bits[i] = i%3 != 0
	}
	var eng *engine
	if _, err := runLabeling(field.FromBits(grid, bits), Config{Shards: 4, Workers: 2}, keepEngine(&eng)); err != nil {
		t.Fatal(err)
	}
	held := 0
	for _, box := range [][][]outRow{eng.cur, eng.prev} {
		for _, rows := range box {
			for _, row := range rows {
				held += cap(row.recs)
				for _, r := range row.recs[:cap(row.recs)] {
					if r.payload != nil {
						t.Fatal("drained outbox row still references a payload")
					}
				}
			}
		}
	}
	if held == 0 {
		t.Fatal("no outbox row ever held a record")
	}
}

// TestInjectedFanoutSameInstantHazards pins an injected fan-out's
// liveness check to its delivery instant. Flood origin 0 and its
// neighbor 2 share the lower left tile; its neighbor 1 lies on another
// shard of the 1×2 and the 2×2 tiling, and node 3 is reachable only
// through 1. Node 1 crashes, or falls asleep, at exactly the instant the
// origin's broadcast reaches it, so the flood must stop there with the
// matching drop. In the last case an unrelated crash of the isolated
// node 4 opens a window one instant earlier, so the record is injected a
// window before it is due.
func TestInjectedFanoutSameInstantHazards(t *testing.T) {
	nw := deploy.FromPoints([]geom.Point{{X: 15, Y: 15}, {X: 15, Y: 25}, {X: 10, Y: 12}, {X: 25, Y: 25}, {X: 35, Y: 5}},
		geom.Rect{MaxX: 40, MaxY: 40}, 11)
	at := sim.Time(cost.NewUniform().TxLatency(2))
	for _, c := range []struct {
		name   string
		cfg    Config
		detail string
	}{
		{"crash", Config{Crashes: fault.Schedule{{Node: 1, At: at}}}, "dead receiver"},
		{"sleep", Config{Churn: churn.Schedule{{Node: 1, At: at, Op: churn.Sleep}}}, "asleep receiver"},
		{"injected a window early", Config{Crashes: fault.Schedule{{Node: 4, At: at - 1}, {Node: 1, At: at}}}, "dead receiver"},
	} {
		cfg := c.cfg
		cfg.Origins, cfg.PktSize, cfg.Trace = []int{0}, 2, true
		want, err := runOracle(nw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var drop []byte
		for _, line := range bytes.Split(want.Trace, []byte("\n")) {
			if bytes.Contains(line, []byte(`"detail":"`+c.detail+`"`)) {
				drop = line
			}
		}
		if want.Reached[0] != 1 || !bytes.Contains(drop, []byte(fmt.Sprintf(`"at":%d,`, at))) {
			t.Fatalf("%s: oracle reached %d with trace\n%s", c.name, want.Reached[0], want.Trace)
		}
		for _, shards := range []int{2, 4} {
			part := NewPartition(nw, shards)
			if part.Owner[0] == part.Owner[1] || part.Owner[0] != part.Owner[2] {
				t.Fatalf("shards=%d: placement does not split 0 from 1", shards)
			}
			cfg.Shards, cfg.Workers = shards, 2
			got, err := Run(nw, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Trace, want.Trace) {
				t.Fatalf("%s, shards=%d: trace diverges from oracle\n got:\n%s\nwant:\n%s", c.name, shards, got.Trace, want.Trace)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, shards=%d: result diverges from oracle\n got: %+v\nwant: %+v", c.name, shards, got, want)
			}
		}
	}
}

// TestSameInstantReceptionsChargeOnce pins the drain's one liveness
// test and one summed Rx charge per node per instant. Node 0 sits at the
// center of a pentagon of five flood origins that reach only it, spread
// over the tiles of the 1×2 and 2×2 tilings, so its five same-instant
// receptions arrive by local and injected fan-outs alike. Its budget
// runs out on the third of them, and each origin's on the second of node
// 0's five rebroadcasts. The engine at 1, 2 and 4 shards must equal the
// oracle in every Result field and in the canonical trace, lossless and
// on a Bernoulli channel.
func TestSameInstantReceptionsChargeOnce(t *testing.T) {
	pts := []geom.Point{{X: 20, Y: 20}}
	for k := 0; k < 5; k++ {
		a := math.Pi/2 + 2*math.Pi*float64(k)/5
		pts = append(pts, geom.Point{X: 20 + 8*math.Cos(a), Y: 20 + 8*math.Sin(a)})
	}
	nw := deploy.FromPoints(pts, geom.Rect{MaxX: 40, MaxY: 40}, 8.5)
	if nw.Degree(0) != 5 || nw.Degree(1) != 1 {
		t.Fatalf("center degree %d, origin degree %d: want 5 and 1", nw.Degree(0), nw.Degree(1))
	}
	at := sim.Time(cost.NewUniform().TxLatency(2))
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"lossless", Config{}},
		{"bernoulli", Config{Loss: 0.2, Seed: 7}},
	} {
		cfg := c.cfg
		cfg.Origins, cfg.PktSize, cfg.Capacity, cfg.Deplete, cfg.Trace = []int{1, 2, 3, 4, 5}, 2, 5, true, true
		want, err := runOracle(nw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Two units a packet against a budget of five: with three or more
		// receptions at at, the budget runs out inside node 0's batch.
		if rx, dep := centerEvents(want.Trace, at, trace.Rx), centerEvents(want.Trace, at, trace.Deplete); rx < 3 || dep != 1 {
			t.Fatalf("%s: oracle gave node 0 %d receptions and %d depletions at %d:\n%s", c.name, rx, dep, at, want.Trace)
		}
		if c.cfg.Loss > 0 && !bytes.Contains(want.Trace, []byte(`"detail":"lost"`)) {
			t.Fatalf("%s: the channel lost nothing", c.name)
		}
		for _, shards := range []int{1, 2, 4} {
			if part, local := NewPartition(nw, shards), 0; shards > 1 {
				for _, o := range cfg.Origins {
					if part.Owner[o] == part.Owner[0] {
						local++
					}
				}
				if local == 0 || local == len(cfg.Origins) {
					t.Fatalf("shards=%d: %d of node 0's senders share its shard, want some but not all", shards, local)
				}
			}
			cfg.Shards, cfg.Workers = shards, 2
			got, err := Run(nw, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Trace, want.Trace) {
				t.Fatalf("%s, shards=%d: trace diverges from oracle\n got:\n%s\nwant:\n%s", c.name, shards, got.Trace, want.Trace)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, shards=%d: result diverges from oracle\n got: %+v\nwant: %+v", c.name, shards, got, want)
			}
		}
	}
}

// centerEvents counts a canonical trace's events of one kind at node 0
// and instant at.
func centerEvents(tr []byte, at sim.Time, kind trace.Kind) int {
	prefix := []byte(fmt.Sprintf(`"at":%d,"kind":%d,"node":"#0",`, at, kind))
	n := 0
	for _, line := range bytes.Split(tr, []byte("\n")) {
		if i := bytes.IndexByte(line, ','); i >= 0 && bytes.HasPrefix(line[i+1:], prefix) {
			n++
		}
	}
	return n
}

// TestShardsOwnTheirSlotRanges pins the layout's contract at 1, 2, 4
// and 8 shards, after a run that depletes batteries and fans out in
// place: the shards' slot ranges tile [0, n) in shard order and hold
// exactly their nodes; each shard's ledger and bank cover exactly its
// own range (none for an empty tile), so fabric state stays O(n) at any
// shard count; each slot's interior flag tells whether all of its node's
// neighbors stay on the shard; and the deployment's rows, which the
// fan-outs read in place, are unchanged. The nodes fill only the
// terrain's left half, so the right-hand tiles at 4 and 8 shards are
// empty.
func TestShardsOwnTheirSlotRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]geom.Point, 300)
	for i := range pts {
		pts[i] = geom.Point{X: 34 * rng.Float64(), Y: 70 * rng.Float64()}
	}
	nw := deploy.FromPoints(pts, geom.Rect{MaxX: 70, MaxY: 70}, 10)
	_, adj := nw.CSRView()
	rows := slices.Clone(adj)
	empty := 0
	for _, shards := range diffShards {
		var eng *engine
		cfg := Config{Floods: 4, Shards: shards, Workers: 2, Capacity: 40, Deplete: true}
		res, err := runFloods(nw, cfg, keepEngine(&eng))
		if err != nil {
			t.Fatal(err)
		}
		if res.Deaths == 0 {
			t.Fatalf("shards=%d: no depletion under a budget of %d", shards, cfg.Capacity)
		}
		p := eng.part
		next := int32(0)
		for i, sr := range eng.shards {
			if sr.start != next || sr.end < sr.start || sr.start != p.Start[i] || sr.end != p.Start[i+1] {
				t.Fatalf("shards=%d: shard %d owns [%d, %d) after slot %d", shards, i, sr.start, sr.end, next)
			}
			next = sr.end
			size := int(sr.end - sr.start)
			if size == 0 {
				if sr.ledger != nil || sr.bank != nil {
					t.Fatalf("shards=%d: empty shard %d holds a ledger or bank", shards, i)
				}
				empty++
				continue
			}
			if sr.ledger.N() != size || sr.bank.N() != size {
				t.Fatalf("shards=%d: shard %d owns %d slots, ledger %d, bank %d", shards, i, size, sr.ledger.N(), sr.bank.N())
			}
			for v := sr.start; v < sr.end; v++ {
				if p.Owner[p.ID[v]] != int32(i) {
					t.Fatalf("shards=%d: slot %d (node %d) on shard %d, owner %d", shards, v, p.ID[v], i, p.Owner[p.ID[v]])
				}
				in := true
				for _, u := range nw.Neighbors(int(p.ID[v])) {
					in = in && p.Owner[u] == int32(i)
				}
				if eng.interior[v] != in {
					t.Fatalf("shards=%d: slot %d interior %v, want %v", shards, v, eng.interior[v], in)
				}
			}
		}
		if int(next) != nw.N() {
			t.Fatalf("shards=%d: slot ranges end at %d of %d", shards, next, nw.N())
		}
		if !slices.Equal(adj, rows) {
			t.Fatalf("shards=%d: the run changed the deployment's rows", shards)
		}
	}
	if empty == 0 {
		t.Fatal("no partition left a tile empty")
	}
}
