package shard

import (
	"fmt"

	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/program"
	"wsnva/internal/regions"
	"wsnva/internal/routing"
	"wsnva/internal/sim"
	"wsnva/internal/synth"
	"wsnva/internal/varch"
)

// The labeling app runs the synthesized labeling program of Figure 4
// (synth.LabelingProgram, the same rule set the DES machine, lockstep, the
// goroutine runtime and the emulation run) on the shard fabric, so it
// runs under any (shards, workers) split. The app only routes:
//
//   - start runs the node's instance from its start rule: it senses the
//     cell, self-merges upward through every level the node leads, and a
//     node whose leadership tops out below the root launches its summary;
//   - the node's effector sends the program's GraphMsg one XY hop toward
//     the sender's level-k leader as a unicast keyed by the sender's node
//     id — one message per node, lifetime, so the key is globally unique;
//   - a woken node relays every summary addressed elsewhere one more hop
//     (the destination is recomputed from the sender and level the
//     message carries) and hands the rest to its instance, whose receive
//     and promote rules merge them and move up a level after 3.
//
// Determinism across shardings: hop latencies are the uniform model's
// TxLatency of the summary size frozen at launch, and wake batches arrive
// sorted by (From, Key), so leaders merge child summaries in an
// interleaving-independent order.

// relayRun is one labeling run's node programs, shared by the per-shard
// apps: instance i runs node i, and only node i's owner shard touches it
// or its effector.
type relayRun struct {
	h     *varch.Hierarchy
	insts []program.Instance[synth.LabelState]
	fxs   []relayFx

	// Root outputs, written only by the root's owner shard.
	final   *regions.Summary
	finalAt sim.Time
}

func newRelayRun(h *varch.Hierarchy, m *field.BinaryMap) *relayRun {
	r := &relayRun{h: h, fxs: make([]relayFx, h.Grid.N()), finalAt: -1}
	r.insts = program.New(synth.LabelingProgram(h, m), h.Grid.N(), func(i int) program.Effector {
		r.fxs[i].node = i
		return &r.fxs[i]
	})
	return r
}

// relayApp is one shard's instance: the run's programs plus the shard's
// fabric and private counters folded after the run.
type relayApp struct {
	run *relayRun
	f   fabric

	msgs int64 // summaries launched toward a parent leader
	hops int64 // unicast hop transmissions attempted
}

func (a *relayApp) fold(o *relayApp) {
	a.msgs += o.msgs
	a.hops += o.hops
}

// start binds the node's effector to this shard and runs its instance's
// start rule to quiescence.
func (a *relayApp) start(f fabric, node int) {
	a.f = f
	a.run.fxs[node].a = a
	a.run.insts[node].RunToQuiescence()
}

// wake handles the node's coalesced deliveries in batch order: summaries
// addressed elsewhere are relayed one hop, the rest go to the node's
// instance.
func (a *relayApp) wake(_ fabric, node int, recs []Packet, batch []int32, _ bool) {
	h := a.run.h
	me := h.Grid.CoordOf(node)
	for _, r := range batch {
		p := &recs[r]
		msg := p.Payload.(synth.GraphMsg)
		if dst := h.LeaderAt(msg.Sender, msg.Level); dst != me {
			a.hop(node, me, dst, p.Size, p.Key, p.Payload)
			continue
		}
		a.run.insts[node].OnMessage(p.Payload)
	}
}

// hop unicasts payload from node, at me, one XY hop toward dst.
func (a *relayApp) hop(node int, me, dst geom.Coord, size, key int64, payload any) {
	dir, ok := routing.NextHopXY(me, dst)
	if !ok {
		panic(fmt.Sprintf("shard: labeling hop at destination %v", me))
	}
	a.hops++
	a.f.unicast(node, a.run.h.Grid.Index(me.Step(dir)), size, key, payload)
}

// relayFx is one node's program.Effector on the shard fabric, bound to its
// owner shard's app at start.
type relayFx struct {
	a    *relayApp
	node int
}

// Send launches the node's summary toward its level-k leader.
func (x *relayFx) Send(level int, size int64, payload any) {
	a := x.a
	me := a.run.h.Grid.CoordOf(x.node)
	a.msgs++
	a.hop(x.node, me, a.run.h.LeaderAt(me, level), size, int64(x.node), payload)
}

// Exfiltrate records the root's summary: the run's answer.
func (x *relayFx) Exfiltrate(result any) {
	r := x.a.run
	r.final = result.(*regions.Summary)
	r.finalAt = x.a.f.now()
}

// Compute and Sense charge nothing: the fabric's ledger meters radio
// traffic only.
func (*relayFx) Compute(int64) {}
func (*relayFx) Sense(int64)   {}

// LabelConfig is the Config of a labeling run (see RunLabeling).
type LabelConfig = Config

// LabelResult is the outcome of a labeling run — like Result, a
// deterministic function of the map and workload alone, identical for
// every shard and worker count.
type LabelResult struct {
	Side   int
	Levels int
	// Final is the root's exfiltrated summary, nil if the run stalled
	// (loss or death broke the reduction tree — with one message per
	// node and no ARQ, any lost or orphaned summary is fatal).
	Final *regions.Summary
	// FinalAt is the exfiltration instant, -1 if stalled.
	FinalAt sim.Time
	// Completion is the timestamp of the last event fired.
	Completion sim.Time
	// Msgs counts summaries launched; Hops counts unicast transmissions
	// (launch hops included).
	Msgs int64
	Hops int64
	// Radio totals, counted as in Result. Labeling only unicasts, so
	// Sent counts the hops whose sender was live.
	Sent      int64
	Delivered int64
	Dropped   int64
	Deaths    int
	// Suspends and Resumes count churn transitions actually applied.
	Suspends int64
	Resumes  int64
	Energy   []cost.Energy
	Total    cost.Energy
	Battery  []int64
	// Trace is the canonical JSONL trace (nil unless Trace).
	Trace []byte
}

// Checksum digests the result into one FNV-1a value (the labeled
// regions enter through the canonical trace plus the summary's shape
// counters).
func (r *LabelResult) Checksum() uint64 {
	h := newFNV1a()
	mix := h.word
	mix(uint64(r.Side))
	mix(uint64(r.Levels))
	if r.Final != nil {
		mix(uint64(r.Final.Count()))
		mix(uint64(r.Final.CoveredCells()))
		mix(uint64(r.Final.TotalCells()))
	}
	mix(uint64(r.FinalAt))
	mix(uint64(r.Completion))
	mix(uint64(r.Msgs))
	mix(uint64(r.Hops))
	mix(uint64(r.Sent))
	mix(uint64(r.Delivered))
	mix(uint64(r.Dropped))
	mix(uint64(r.Deaths))
	// Gated as in Result.Checksum: churn-free digests are unchanged.
	if r.Suspends != 0 || r.Resumes != 0 {
		mix(uint64(r.Suspends))
		mix(uint64(r.Resumes))
	}
	for _, e := range r.Energy {
		mix(uint64(e))
	}
	for _, v := range r.Battery {
		mix(uint64(v))
	}
	h.bytes(r.Trace)
	return uint64(h)
}

// labelDeployment materializes the virtual grid as a physical network:
// one node at every cell center, each linked to its 4-adjacent cells, with
// transmission range just over one cell side — exactly the disk graph of
// those centers, since diagonal neighbors sit √2 ≈ 1.414 cell sides away.
func labelDeployment(g *geom.Grid) *deploy.Network {
	n := g.N()
	pts := make([]geom.Point, n)
	flat := make([]int, 0, 4*n)
	adj := make([][]int, n)
	for i := range pts {
		c := g.CoordOf(i)
		pts[i] = g.CellCenter(c)
		lo := len(flat)
		// Ascending IDs: north, west, east, south.
		if c.Row > 0 {
			flat = append(flat, i-g.Cols)
		}
		if c.Col > 0 {
			flat = append(flat, i-1)
		}
		if c.Col < g.Cols-1 {
			flat = append(flat, i+1)
		}
		if c.Row < g.Rows-1 {
			flat = append(flat, i+g.Cols)
		}
		adj[i] = flat[lo:len(flat):len(flat)]
	}
	return deploy.FromAdjacency(pts, g.Terrain, g.CellSide()*1.1, adj)
}

// RunLabeling executes the quad-tree labeling workload over m's grid on
// the conservative-window engine. Every shard and worker count produces
// an identical LabelResult — including a byte-identical trace — for the
// same map and hazard configuration. cfg supplies the execution strategy
// (Shards, Workers), the hazard knobs (Loss, Burst, Seed, Crashes, Churn,
// Capacity, Deplete), and Trace/Sink; its dissemination-only fields
// (Floods, Origins, PktSize) are ignored.
func RunLabeling(m *field.BinaryMap, cfg Config) (*LabelResult, error) {
	return runLabeling(m, cfg, execute)
}

func runLabeling(m *field.BinaryMap, cfg Config, exec executor) (*LabelResult, error) {
	h, err := varch.NewHierarchy(m.Grid)
	if err != nil {
		return nil, err
	}
	hz, err := buildHazards(m.Grid.N(), &cfg)
	if err != nil {
		return nil, err
	}
	nw := labelDeployment(m.Grid)
	st := NewState(nw)
	lr := newRelayRun(h, m)
	var apps []*relayApp
	mk := func(int) app {
		a := &relayApp{run: lr}
		apps = append(apps, a)
		return a
	}
	rs := exec(nw, st, cost.NewUniform(), cfg.Shards, cfg.Workers, mk, hz)
	agg := apps[0]
	for _, a := range apps[1:] {
		agg.fold(a)
	}
	res := &LabelResult{
		Side:       m.Grid.Cols,
		Levels:     h.Levels,
		Final:      lr.final,
		FinalAt:    lr.finalAt,
		Completion: rs.completion,
		Msgs:       agg.msgs,
		Hops:       agg.hops,
		Sent:       rs.sent,
		Delivered:  rs.delivered,
		Dropped:    rs.dropped,
		Deaths:     st.Deaths(),
		Suspends:   rs.suspends,
		Resumes:    rs.resumes,
		Energy:     rs.energy,
	}
	res.Total, res.Battery, res.Trace = rs.settle(cfg.Capacity, cfg.Trace)
	return res, nil
}
