package shard

import (
	"fmt"

	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/parallel"
	"wsnva/internal/regions"
	"wsnva/internal/routing"
	"wsnva/internal/sim"
	"wsnva/internal/varch"
)

// The labeling app is the paper's E1-class workload — the quad-tree
// homogeneous-region labeling of Figure 4 — ported onto the shard
// fabric so it runs under any (shards, workers) split. The protocol
// structure mirrors the synthesized guarded-command program:
//
//   - every node senses its cell into a level-0 summary;
//   - a node that leads up to level k self-merges its summary upward
//     (the parent is co-located with its NW child), then waits for
//     exactly 3 external messages at each led level before promoting;
//   - a node whose leadership tops out below the root sends its merged
//     summary to the next-level leader — one message per node,
//     lifetime — forwarded hop by hop over XY routing as unicasts;
//   - the root exfiltrates after its 3 top-level messages arrive.
//
// Determinism across shardings: every message carries the originating
// node's id as its key (globally unique — one message per origin,
// ever), hop latencies are the uniform model's TxLatency of the fixed
// summary size, and wake batches arrive sorted by (From, Key), so
// leaders merge child summaries in an interleaving-independent order.

// labelMsg is one summary in flight toward a leader. The pointer is
// handed from hop to hop; only the current holder ever touches it, and
// the cross-shard handoff happens-before the receiving window.
type labelMsg struct {
	origin int        // originating node id == the wire key
	dst    geom.Coord // target leader
	level  int        // recursion level the summary merges at
	size   int64      // Summary.Size() frozen at launch
	sub    *regions.Summary
}

// labelShared is the cross-shard SoA state of one labeling run. A
// node's slots are touched only by its owner shard.
type labelShared struct {
	h *varch.Hierarchy
	m *field.BinaryMap

	// sub[node][level] is the node's accumulated summary per level;
	// got[node][level] counts external messages merged at that level;
	// recLevel is the highest completed level; done marks nodes whose
	// own protocol role is finished (they still forward).
	sub      [][]*regions.Summary
	got      [][]int8
	recLevel []int8
	done     []bool

	// Root outputs, written only by the root's owner shard.
	final   *regions.Summary
	finalAt sim.Time
}

func newLabelShared(h *varch.Hierarchy, m *field.BinaryMap) *labelShared {
	n := h.Grid.N()
	sh := &labelShared{
		h: h, m: m,
		sub:      make([][]*regions.Summary, n),
		got:      make([][]int8, n),
		recLevel: make([]int8, n),
		done:     make([]bool, n),
		finalAt:  -1,
	}
	for i := range sh.sub {
		sh.sub[i] = make([]*regions.Summary, h.Levels+1)
		sh.got[i] = make([]int8, h.Levels+1)
	}
	return sh
}

func (sh *labelShared) mergeAt(node, level int, s *regions.Summary) {
	if cur := sh.sub[node][level]; cur != nil {
		cur.Merge(s)
		return
	}
	sh.sub[node][level] = s
}

// labelApp is one shard's instance: shared protocol state plus private
// counters folded after the run.
type labelApp struct {
	sh *labelShared

	msgs int64 // summaries launched toward a parent leader
	hops int64 // unicast hop transmissions attempted
}

func newLabelApp(sh *labelShared) *labelApp { return &labelApp{sh: sh} }

func (a *labelApp) fold(o *labelApp) {
	a.msgs += o.msgs
	a.hops += o.hops
}

// start senses the node's cell into its level-0 summary and advances:
// leaders self-merge upward, leaves launch their single message.
func (a *labelApp) start(f fabric, node int) {
	sh := a.sh
	sh.mergeAt(node, 0, regions.Leaf(sh.m, sh.h.Grid.CoordOf(node)))
	a.advance(f, node)
}

// wake handles the node's coalesced deliveries: messages addressed
// elsewhere are forwarded one hop along the XY route; messages for this
// node merge at their level and may unblock a promotion.
func (a *labelApp) wake(f fabric, node int, pkts []Packet, timer bool) {
	_ = timer // the labeling protocol is purely message-driven
	sh := a.sh
	me := sh.h.Grid.CoordOf(node)
	for _, p := range pkts {
		msg := p.Payload.(*labelMsg)
		if msg.dst != me {
			a.forward(f, node, me, msg)
			continue
		}
		sh.mergeAt(node, msg.level, msg.sub)
		sh.got[node][msg.level]++
		a.advance(f, node)
	}
}

// forward relays msg one XY hop toward its destination leader.
func (a *labelApp) forward(f fabric, node int, me geom.Coord, msg *labelMsg) {
	dir, ok := routing.NextHopXY(me, msg.dst)
	if !ok {
		panic(fmt.Sprintf("shard: labeling forward at destination %v", me))
	}
	next := a.sh.h.Grid.Index(me.Step(dir))
	a.hops++
	f.unicast(node, next, msg.size, int64(msg.origin), msg)
}

// advance runs the node's transmit/promote ladder to a fixpoint: the
// shard-fabric rendering of the synthesized program's transmit rule
// gated by the promote rule's "3 external messages per led level".
func (a *labelApp) advance(f fabric, node int) {
	sh := a.sh
	me := sh.h.Grid.CoordOf(node)
	for !sh.done[node] {
		level := int(sh.recLevel[node])
		if level > 0 && sh.got[node][level] != 3 {
			return // promote guard: waiting on child summaries
		}
		if level == sh.h.Levels {
			// The root's exfiltration: the run's answer.
			sh.done[node] = true
			sh.final = sh.sub[node][level]
			sh.finalAt = f.now()
			return
		}
		parent := sh.h.LeaderAt(me, level+1)
		sub := sh.sub[node][level]
		sh.sub[node][level] = nil
		if parent == me {
			// Leader of the next level too: contribute the quadrant by a
			// local merge (Figure 2's co-located parent), no transmission.
			sh.mergeAt(node, level+1, sub)
			sh.recLevel[node] = int8(level + 1)
			continue
		}
		sh.done[node] = true
		msg := &labelMsg{origin: node, dst: parent, level: level + 1, size: sub.Size(), sub: sub}
		a.msgs++
		a.hops++
		f.unicast(node, sh.h.Grid.Index(me.Step(mustNextHop(me, parent))), msg.size, int64(node), msg)
		return
	}
}

func mustNextHop(src, dst geom.Coord) geom.Dir {
	dir, ok := routing.NextHopXY(src, dst)
	if !ok {
		panic(fmt.Sprintf("shard: labeling send to self at %v", src))
	}
	return dir
}

// LabelConfig parameterizes a sharded labeling run. The embedded
// Config supplies the execution strategy (Shards, Workers), the hazard
// knobs (Loss, Burst, Seed, Crashed, Crashes, Capacity, Deplete), and
// Trace/Model; its dissemination-only fields (Floods, Origins,
// PktSize) are ignored.
type LabelConfig struct {
	Config
}

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
	// Radio totals, as in Result.
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
// one node at every cell center, transmission range just over one cell
// side so the disk graph is exactly the oriented grid's 4-adjacency
// (diagonal neighbors sit √2 ≈ 1.414 cell sides away).
func labelDeployment(g *geom.Grid) *deploy.Network {
	pts := make([]geom.Point, g.N())
	for i := range pts {
		pts[i] = g.CellCenter(g.CoordOf(i))
	}
	return deploy.FromPoints(pts, g.Terrain, g.CellSide()*1.1)
}

// RunLabeling executes the quad-tree labeling workload over m's grid.
// Shards <= 1 runs the single-kernel oracle; larger counts run the
// conservative-window parallel engine. Both produce identical
// LabelResults — including byte-identical traces — for the same map
// and hazard configuration.
func RunLabeling(m *field.BinaryMap, cfg LabelConfig) (*LabelResult, error) {
	h, err := varch.NewHierarchy(m.Grid)
	if err != nil {
		return nil, err
	}
	n := m.Grid.N()
	model := cfg.Model
	if model == nil {
		model = cost.NewUniform()
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if cfg.Crashed != nil && len(cfg.Crashed) != n {
		return nil, fmt.Errorf("shard: crash mask covers %d nodes, grid has %d", len(cfg.Crashed), n)
	}
	hz, err := buildHazards(n, &cfg.Config)
	if err != nil {
		return nil, err
	}
	nw := labelDeployment(m.Grid)
	st := NewState(nw)
	sh := newLabelShared(h, m)
	traceCap := 0
	if cfg.Trace {
		// Every unicast hop emits a Tx plus one Rx-or-Drop; total hops
		// are bounded by 3n (each level-k sender travels < 2^(k+1) hops
		// and sender counts shrink geometrically), plus one Death and
		// one Deplete per node and one Sleep or Wake per churn entry.
		traceCap = 8*n + len(cfg.Churn) + 64
	}
	var apps []*labelApp
	mk := func(int) app {
		a := newLabelApp(sh)
		apps = append(apps, a)
		return a
	}
	var rs runStats
	if cfg.Shards <= 1 {
		rs = execute(nw, st, model, nil, nil, mk, hz, cfg.Crashed, traceCap)
	} else {
		part := NewPartition(nw, cfg.Shards)
		pool := parallel.New(cfg.Workers)
		rs = execute(nw, st, model, part, pool, mk, hz, cfg.Crashed, traceCap)
	}
	if rs.lost > 0 {
		return nil, fmt.Errorf("shard: trace ring overflowed, %d events lost", rs.lost)
	}
	agg := apps[0]
	for _, a := range apps[1:] {
		agg.fold(a)
	}
	res := &LabelResult{
		Side:       m.Grid.Cols,
		Levels:     h.Levels,
		Final:      sh.final,
		FinalAt:    sh.finalAt,
		Completion: rs.completion,
		Msgs:       agg.msgs,
		Hops:       agg.hops,
		Sent:       rs.sent,
		Delivered:  rs.delivered,
		Dropped:    rs.dropped,
		Deaths:     st.Deaths(),
		Suspends:   rs.suspends,
		Resumes:    rs.resumes,
		Energy:     make([]cost.Energy, n),
		Battery:    st.Battery,
	}
	for i := range res.Energy {
		e := rs.ledger.Energy(i)
		res.Energy[i] = e
		res.Total += e
		st.Battery[i] = int64(cfg.Capacity) - int64(e)
	}
	if cfg.Trace {
		if res.Trace, err = encodeCanonical(rs.events); err != nil {
			return nil, err
		}
	}
	return res, nil
}
