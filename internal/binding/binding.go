// Package binding implements Section 5.2: binding the N virtual processes
// of the synthesized program to the n ≥ N physical nodes. One node per cell
// is elected to execute the virtual process of that cell's grid node; the
// paper's metric is minimum Euclidean distance to the cell center ("an
// effort to align the problem geometry and the network geometry"), with
// residual energy called out as an alternative when leadership should
// rotate.
//
// Protocol (broadcast-and-suppress, as in the paper): every node starts
// with leader = true and broadcasts its own score. Messages crossing a cell
// boundary are suppressed. A node that hears a strictly better score from a
// same-cell neighbor demotes itself and re-broadcasts the better score;
// eventually the only node still flagged leader is the cell's argmin, and
// every other member knows the winning score.
package binding

import (
	"fmt"
	"math"

	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/geom"
	"wsnva/internal/radio"
	"wsnva/internal/sim"
)

// scoreMsgSize is the size of an election broadcast in cost-model units:
// a cell tag plus a score.
const scoreMsgSize = 2

// Metric scores a node for election; strictly lower scores win and ties
// break toward the lower node ID (deterministic, as any real protocol
// would tie-break on a unique hardware ID).
type Metric interface {
	Score(id int) float64
	Name() string
}

// MinDistance is the paper's metric: distance to the cell's center.
type MinDistance struct {
	Network *deploy.Network
	Grid    *geom.Grid
}

// Score implements Metric.
func (m MinDistance) Score(id int) float64 {
	pos := m.Network.Nodes[id].Pos
	return pos.Dist(m.Grid.CellCenter(m.Grid.CellOf(pos)))
}

// Name implements Metric.
func (MinDistance) Name() string { return "min-distance" }

// MaxResidual elects the node with the most remaining energy: score is
// energy spent so far (lower spend = more residual = better). The paper
// suggests it "especially if the role of leader is to be periodically
// rotated among nodes in the cell".
type MaxResidual struct {
	Ledger *cost.Ledger
}

// Score implements Metric.
func (m MaxResidual) Score(id int) float64 { return float64(m.Ledger.Energy(id)) }

// Name implements Metric.
func (MaxResidual) Name() string { return "max-residual" }

// Excluding wraps a metric and disqualifies a set of nodes (previous
// leaders, for rotation experiments) by scoring them +Inf.
type Excluding struct {
	Inner    Metric
	Excluded map[int]bool
}

// Score implements Metric.
func (m Excluding) Score(id int) float64 {
	if m.Excluded[id] {
		return math.Inf(1)
	}
	return m.Inner.Score(id)
}

// Name implements Metric.
func (m Excluding) Name() string { return m.Inner.Name() + "-rotated" }

// electMsg is the broadcast payload: the sender's cell (its grid index)
// and the best (score, owner) it knew at transmission.
type electMsg struct {
	cell  int32
	score float64
	owner int // node the score belongs to
}

// election runs one leader election per cell over the medium.
type election struct {
	med  *radio.Medium
	grid *geom.Grid

	cellOf     []geom.Coord
	cell       []int32 // per node: grid index of cellOf, the same-cell test
	leaderFlag []bool
	scores     []float64 // per-node score snapshot taken at election start
	bestScore  []float64
	bestOwner  []int
	pending    []bool
	fire       []func() // per node: its score broadcast, bound once

	broadcasts int64
	suppressed int64
	demotions  int64
	lastChange sim.Time
}

// newElection prepares an election over med's network for grid, using
// metric. Scores are snapshotted here: a metric like MaxResidual reads the
// energy ledger, and the election's own radio traffic charges that same
// ledger, so evaluating scores lazily would make the protocol chase a
// moving target. Call run to execute.
func newElection(med *radio.Medium, grid *geom.Grid, metric Metric) *election {
	nw := med.Network()
	e := &election{
		med:        med,
		grid:       grid,
		cellOf:     make([]geom.Coord, nw.N()),
		cell:       make([]int32, nw.N()),
		leaderFlag: make([]bool, nw.N()),
		scores:     make([]float64, nw.N()),
		bestScore:  make([]float64, nw.N()),
		bestOwner:  make([]int, nw.N()),
		pending:    make([]bool, nw.N()),
		fire:       make([]func(), nw.N()),
	}
	for id := 0; id < nw.N(); id++ {
		e.cellOf[id] = grid.CellOf(nw.Nodes[id].Pos)
		e.cell[id] = int32(grid.Index(e.cellOf[id]))
		e.leaderFlag[id] = true
		e.scores[id] = metric.Score(id)
		e.bestScore[id] = e.scores[id]
		e.bestOwner[id] = id
		e.fire[id] = func() { e.broadcast(id) }
	}
	med.SetReceiver(e.onPacket)
	return e
}

// better reports whether (score a, owner a) beats (score b, owner b).
func better(sa float64, oa int, sb float64, ob int) bool {
	if sa != sb {
		return sa < sb
	}
	return oa < ob
}

// onPacket is the medium's receiver while the election owns it.
func (e *election) onPacket(id int, pkt radio.Packet) {
	msg, ok := pkt.Payload.(*electMsg)
	if !ok {
		return
	}
	if msg.cell != e.cell[id] {
		e.suppressed++
		return
	}
	if !better(msg.score, msg.owner, e.bestScore[id], e.bestOwner[id]) {
		return
	}
	if e.leaderFlag[id] {
		e.leaderFlag[id] = false
		e.demotions++
	}
	e.bestScore[id] = msg.score
	e.bestOwner[id] = msg.owner
	e.lastChange = e.med.Kernel().Now()
	e.schedule(id)
}

func (e *election) schedule(id int) {
	if e.pending[id] {
		return
	}
	e.pending[id] = true
	e.med.Kernel().After(1, e.fire[id])
}

// broadcast sends node id's scheduled score broadcast: the best score it
// knows at transmission.
func (e *election) broadcast(id int) {
	e.pending[id] = false
	e.broadcasts++
	e.med.Broadcast(id, scoreMsgSize, &electMsg{
		cell: e.cell[id], score: e.bestScore[id], owner: e.bestOwner[id],
	})
}

// run executes the election to quiescence and returns the result.
func (e *election) run() *Result {
	start := e.med.Kernel().Now()
	e.lastChange = start
	for id := range e.leaderFlag {
		e.schedule(id)
	}
	e.med.Kernel().Run()
	res := &Result{
		Leaders:    make(map[geom.Coord]int),
		Scores:     append([]float64(nil), e.scores...),
		Broadcasts: e.broadcasts,
		Suppressed: e.suppressed,
		Demotions:  e.demotions,
	}
	if e.lastChange > start {
		res.Convergence = e.lastChange - start
	}
	for id, isLeader := range e.leaderFlag {
		if !isLeader {
			continue
		}
		cell := e.cellOf[id]
		if prev, dup := res.Leaders[cell]; dup {
			res.Conflicts = append(res.Conflicts, fmt.Sprintf("cell %v: nodes %d and %d both lead", cell, prev, id))
			continue
		}
		res.Leaders[cell] = id
	}
	return res
}

// Result is the outcome of an election round.
type Result struct {
	Leaders     map[geom.Coord]int // elected node per cell
	Scores      []float64          // the per-node score snapshot the election ran on
	Broadcasts  int64
	Suppressed  int64
	Demotions   int64
	Convergence sim.Time
	Conflicts   []string // cells with more than one surviving leader
}

// Verify checks the result against a brute-force argmin over each cell's
// members, using the score snapshot the election actually ran on: every
// occupied cell has exactly one leader and it is the true winner. It
// returns nil on success.
func (r *Result) Verify(nw *deploy.Network, grid *geom.Grid) error {
	if len(r.Conflicts) > 0 {
		return fmt.Errorf("binding: %d cells with conflicting leaders: %s", len(r.Conflicts), r.Conflicts[0])
	}
	members := nw.CellMembers(grid)
	for idx, m := range members {
		cell := grid.CoordOf(idx)
		if len(m) == 0 {
			if _, has := r.Leaders[cell]; has {
				return fmt.Errorf("binding: empty cell %v has a leader", cell)
			}
			continue
		}
		want := m[0]
		for _, id := range m[1:] {
			if better(r.Scores[id], id, r.Scores[want], want) {
				want = id
			}
		}
		got, has := r.Leaders[cell]
		if !has {
			return fmt.Errorf("binding: cell %v elected nobody", cell)
		}
		if got != want {
			return fmt.Errorf("binding: cell %v elected node %d (score %v), argmin is %d (score %v)",
				cell, got, r.Scores[got], want, r.Scores[want])
		}
	}
	return nil
}

// Binding maps the virtual grid onto elected physical nodes. It is the
// output the synthesized program consumes: virtual node (i,j) executes on
// physical node Leaders[(i,j)].
type Binding struct {
	Grid    *geom.Grid
	Leaders map[geom.Coord]int
}

// Bind runs a complete election and returns the virtual-to-physical
// binding, failing if any occupied cell is leaderless or conflicted.
func Bind(med *radio.Medium, grid *geom.Grid, metric Metric) (*Binding, *Result, error) {
	res := newElection(med, grid, metric).run()
	if err := res.Verify(med.Network(), grid); err != nil {
		return nil, res, err
	}
	return &Binding{Grid: grid, Leaders: res.Leaders}, res, nil
}
