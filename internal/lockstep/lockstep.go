// Package lockstep executes synthesized programs in synchronous rounds —
// the TDMA-style regime the paper's network model explicitly allows
// ("Depending on the type of network, the model could support synchronous
// algorithms (e.g., TDMA), purely asynchronous message-passing paradigms,
// or a combination", Section 2). It is the third execution engine, next to
// the discrete-event machine (varch/synth) and the goroutine runtime.
//
// Semantics: in every round, each in-flight message advances exactly one
// grid hop along its XY route; messages that reach their destination are
// delivered at the start of the next round, and the rule firings they
// trigger enqueue new messages that start moving in that round. The round
// count at exfiltration is the paper's "step" measure (Section 4.1: "A
// step denotes a round of computation and is used for convenience of
// analysis"), free of the message-size effects that show up in timed
// latency — which is precisely why the O(√N)-step claim is cleanest to
// verify here.
//
// Energy is charged per hop and per data unit exactly as in the other
// engines, so a loss-free lock-step run produces the same total energy as
// the DES machine (asserted in tests).
package lockstep

import (
	"fmt"
	"sort"

	"wsnva/internal/cost"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/program"
	"wsnva/internal/regions"
	"wsnva/internal/synth"
	"wsnva/internal/varch"
)

// flight is one message travelling hop by hop.
type flight struct {
	route   []geom.Coord // XY route, route[0] = source
	pos     int          // index of the node currently holding the message
	size    int64
	payload any
	seq     int64 // deterministic delivery order among same-round arrivals
}

// Result is the outcome of a lock-step round sequence.
type Result struct {
	Final       *regions.Summary
	Rounds      int   // rounds elapsed until exfiltration (or quiescence)
	Messages    int64 // messages injected
	HopsMoved   int64 // total hop movements
	RuleFirings int64
}

// Engine runs synthesized labeling programs in lock-step rounds.
type Engine struct {
	hier   *varch.Hierarchy
	ledger *cost.Ledger
}

// New returns an engine over h charging ledger (one entry per grid cell).
func New(h *varch.Hierarchy, ledger *cost.Ledger) *Engine {
	if ledger.N() != h.Grid.N() {
		panic(fmt.Sprintf("lockstep: ledger tracks %d nodes, grid has %d", ledger.N(), h.Grid.N()))
	}
	return &Engine{hier: h, ledger: ledger}
}

// nodeFx implements program.Effector by injecting flights into the engine.
type nodeFx struct {
	eng   *runState
	coord geom.Coord
}

type runState struct {
	hier    *varch.Hierarchy
	ledger  *cost.Ledger
	flights []*flight
	nextSeq int64
	res     *Result
	exfil   bool
}

func (f *nodeFx) Send(level int, size int64, payload any) {
	dst := f.eng.hier.LeaderAt(f.coord, level)
	route := xyRoute(f.eng.hier.Grid, f.coord, dst)
	f.eng.res.Messages++
	f.eng.flights = append(f.eng.flights, &flight{
		route: route, pos: 0, size: size, payload: payload, seq: f.eng.nextSeq,
	})
	f.eng.nextSeq++
}

func (f *nodeFx) Exfiltrate(result any) {
	if !f.eng.exfil {
		f.eng.exfil = true
		f.eng.res.Final = result.(*regions.Summary)
	}
}

func (f *nodeFx) Compute(units int64) {
	f.eng.ledger.Charge(f.eng.hier.Grid.Index(f.coord), cost.Compute, units)
}

func (f *nodeFx) Sense(units int64) {
	f.eng.ledger.Charge(f.eng.hier.Grid.Index(f.coord), cost.Sense, units)
}

// xyRoute mirrors routing.XYRoute but is local to avoid an import cycle
// hazard if routing ever grows a lockstep dependency; the two are asserted
// equal in tests.
func xyRoute(g *geom.Grid, src, dst geom.Coord) []geom.Coord {
	route := []geom.Coord{src}
	cur := src
	for cur.Col != dst.Col {
		if cur.Col < dst.Col {
			cur = cur.Step(geom.East)
		} else {
			cur = cur.Step(geom.West)
		}
		route = append(route, cur)
	}
	for cur.Row != dst.Row {
		if cur.Row < dst.Row {
			cur = cur.Step(geom.South)
		} else {
			cur = cur.Step(geom.North)
		}
		route = append(route, cur)
	}
	return route
}

// maxRounds guards against a livelocked round loop; no correct program
// needs more rounds than total route length, itself far below this.
const maxRounds = 1 << 20

// Run executes one labeling round sequence over m and returns the result.
func (e *Engine) Run(m *field.BinaryMap) (*Result, error) {
	if m.Grid != e.hier.Grid {
		return nil, fmt.Errorf("lockstep: map grid and hierarchy grid differ")
	}
	res, _, err := RunProgram(e, synth.LabelingProgram(e.hier, m))
	if err != nil {
		return nil, err
	}
	if res.Final == nil {
		return nil, fmt.Errorf("lockstep: labeling quiesced after %d rounds without exfiltration", res.Rounds)
	}
	return res, nil
}

// RunProgram executes a synthesized program on every node in lock-step
// rounds. The round loop ends at the first exfiltration (the labeling
// pattern) or at quiescence with Rounds set to the last round that moved a
// message, whichever comes first; programs that never exfiltrate (like
// tracking) are read back through the returned instances' states, indexed
// by grid index.
func RunProgram[S any](e *Engine, spec *program.Spec[S]) (*Result, []program.Instance[S], error) {
	g := e.hier.Grid
	st := &runState{hier: e.hier, ledger: e.ledger, res: &Result{}}
	fxs := make([]nodeFx, g.N())
	insts := program.New(spec, g.N(), func(i int) program.Effector {
		fxs[i] = nodeFx{eng: st, coord: g.CoordOf(i)}
		return &fxs[i]
	})

	// Round 0: every node runs its start rules; sends enter flight.
	for i := range insts {
		insts[i].RunToQuiescence()
	}

	for rounds := 0; ; rounds++ {
		if st.exfil || len(st.flights) == 0 {
			st.res.Rounds = rounds
			break
		}
		if rounds > maxRounds {
			return nil, nil, fmt.Errorf("lockstep: no completion after %d rounds", rounds)
		}
		// Move every in-flight message one hop, charging the link.
		var arrived, still []*flight
		for _, fl := range st.flights {
			from := g.Index(fl.route[fl.pos])
			to := g.Index(fl.route[fl.pos+1])
			e.ledger.ChargeTransfer(from, to, fl.size)
			st.res.HopsMoved++
			fl.pos++
			if fl.pos == len(fl.route)-1 {
				arrived = append(arrived, fl)
			} else {
				still = append(still, fl)
			}
		}
		st.flights = still
		// Deliver arrivals in deterministic order; deliveries may enqueue
		// new flights, which begin moving next round.
		sort.Slice(arrived, func(i, j int) bool { return arrived[i].seq < arrived[j].seq })
		for _, fl := range arrived {
			dst := fl.route[len(fl.route)-1]
			insts[g.Index(dst)].OnMessage(fl.payload)
		}
	}
	st.res.RuleFirings, _ = program.Fired(insts)
	return st.res, insts, nil
}
