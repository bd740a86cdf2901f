// Package vtopo implements the topology-emulation protocol of Section 5.1:
// overlaying the virtual grid on an arbitrary dense deployment. The terrain
// is partitioned into cells, one per virtual node; each physical node
// computes its own cell from its coordinates; and a cell-based broadcast
// protocol fills each node's routing table RT_i : {N,E,S,W} → next hop, so
// messages can be forwarded between adjacent cells of the oriented grid.
//
// Protocol (as in the paper):
//
//  1. Localization and neighbor discovery are assumed done: every node
//     knows its position, its cell, and its one-hop neighbors.
//  2. Base entries: RT_i[d] is seeded with a direct neighbor lying in the
//     adjacent cell in direction d, if one exists; otherwise NULL.
//  3. Every node broadcasts its routing table. A receiver ignores the
//     message if the sender is in a different cell (messages cross at most
//     one cell boundary before being suppressed — property (ii)).
//  4. If a same-cell sender v_j has RT_j[d] ≠ NULL where the receiver's
//     RT_i[d] = NULL, the receiver sets RT_i[d] = v_j and, having changed,
//     re-broadcasts.
//
// Entries only ever go NULL → set, and each set entry points to a node
// whose own entry was set strictly earlier, so forwarding chains are
// acyclic and terminate in the adjacent cell. Path setup in all cells
// proceeds in parallel (property (i)) and converges after a number of
// rounds bounded by the longest intra-cell shortest path (property (iii));
// experiment E5 measures all three properties.
package vtopo

import (
	"fmt"
	"sort"

	"wsnva/internal/geom"
	"wsnva/internal/radio"
	"wsnva/internal/sim"
)

// NoNode marks an empty routing-table entry (the paper's NULL).
const NoNode = -1

// rtMsgSize is the size of a routing-table broadcast in cost-model data
// units: four direction entries.
const rtMsgSize = 4

// Table is one node's routing table: the next hop toward the adjacent cell
// in each direction.
type Table [geom.NumDirs]int

// rtMsg is the broadcast payload: the sender's cell (its grid index) and
// a snapshot of its table taken at transmission.
type rtMsg struct {
	cell  int32
	table Table
}

// Protocol runs topology emulation over a deployment.
type Protocol struct {
	med  *radio.Medium
	grid *geom.Grid

	cellOf  []geom.Coord // per node
	cell    []int32      // per node: grid index of cellOf, the same-cell test
	tables  []Table
	dead    []bool
	pending []bool   // broadcast scheduled but not yet sent
	fire    []func() // per node: its routing-table broadcast, bound once

	broadcasts int64 // routing-table broadcasts sent
	suppressed int64 // deliveries ignored for crossing a cell boundary
	adopted    int64 // table entries learned from neighbors
	lastChange sim.Time

	// onBroadcast, when set, observes every routing-table broadcast as
	// it is transmitted. The churn harness uses it to attribute repair
	// traffic to a disturbance and tag each message with its cell
	// distance from the disturbed region.
	onBroadcast func(id int)
}

// New prepares the protocol state over medium med for virtual grid grid.
// It does not transmit anything; call Run.
func New(med *radio.Medium, grid *geom.Grid) *Protocol {
	nw := med.Network()
	p := &Protocol{
		med:     med,
		grid:    grid,
		cellOf:  make([]geom.Coord, nw.N()),
		cell:    make([]int32, nw.N()),
		tables:  make([]Table, nw.N()),
		dead:    make([]bool, nw.N()),
		pending: make([]bool, nw.N()),
		fire:    make([]func(), nw.N()),
	}
	for i := range p.tables {
		p.cellOf[i] = grid.CellOf(nw.Nodes[i].Pos)
		p.cell[i] = int32(grid.Index(p.cellOf[i]))
		for d := range p.tables[i] {
			p.tables[i][d] = NoNode
		}
		p.fire[i] = func() { p.broadcast(i) }
	}
	med.SetReceiver(p.onPacket)
	return p
}

// CellOf returns the cell of physical node id.
func (p *Protocol) CellOf(id int) geom.Coord { return p.cellOf[id] }

// Table returns node id's routing table (a copy).
func (p *Protocol) Table(id int) Table { return p.tables[id] }

// seedBase fills node id's base entries from its direct alive neighbors.
func (p *Protocol) seedBase(id int) {
	nw := p.med.Network()
	cell := p.cellOf[id]
	for d := geom.North; d < geom.NumDirs; d++ {
		p.tables[id][d] = NoNode
		adj := cell.Step(d)
		if !p.grid.InBounds(adj) {
			continue
		}
		for _, nbr := range nw.Neighbors(id) {
			if !p.dead[nbr] && p.cellOf[nbr] == adj {
				p.tables[id][d] = int(nbr)
				break
			}
		}
	}
}

// scheduleBroadcast queues a routing-table broadcast for node id one
// latency unit out (the paper's nodes react, they don't transmit
// instantaneously), collapsing duplicates.
func (p *Protocol) scheduleBroadcast(id int) {
	if p.pending[id] || p.dead[id] {
		return
	}
	p.pending[id] = true
	p.med.Kernel().After(1, p.fire[id])
}

// broadcast sends node id's scheduled routing-table broadcast, unless the
// node died while it was pending.
func (p *Protocol) broadcast(id int) {
	p.pending[id] = false
	if p.dead[id] {
		return
	}
	p.broadcasts++
	if p.onBroadcast != nil {
		p.onBroadcast(id)
	}
	p.med.Broadcast(id, rtMsgSize, &rtMsg{cell: p.cell[id], table: p.tables[id]})
}

// SetOnBroadcast attaches an observer called with the sender's id on
// every routing-table broadcast, at transmission time (nil detaches).
func (p *Protocol) SetOnBroadcast(fn func(id int)) { p.onBroadcast = fn }

// Deliver feeds a received radio packet to the protocol, reporting
// whether it was protocol traffic. A host that re-owns the medium's
// receiver (the physical machine installs its own to route application
// traffic) chains to Deliver first, so table repair keeps cascading
// adoptions after the application takes over the radio.
func (p *Protocol) Deliver(id int, pkt radio.Packet) bool {
	if _, ok := pkt.Payload.(*rtMsg); !ok {
		return false
	}
	p.onPacket(id, pkt)
	return true
}

// onPacket is the medium's receiver while the protocol owns it.
func (p *Protocol) onPacket(id int, pkt radio.Packet) {
	if p.dead[id] || p.dead[pkt.From] {
		return
	}
	msg, ok := pkt.Payload.(*rtMsg)
	if !ok {
		return // not ours (the medium is shared with other protocols)
	}
	if msg.cell != p.cell[id] {
		p.suppressed++ // crossed a cell boundary: suppress
		return
	}
	changed := false
	for d := geom.North; d < geom.NumDirs; d++ {
		if p.tables[id][d] == NoNode && msg.table[d] != NoNode {
			p.tables[id][d] = pkt.From
			p.adopted++
			changed = true
		}
	}
	if changed {
		p.lastChange = p.med.Kernel().Now()
		p.scheduleBroadcast(id)
	}
}

// Run executes the full protocol from scratch: seeds base entries, has
// every node broadcast once, and drives the kernel until the protocol
// quiesces. It returns the setup metrics.
func (p *Protocol) Run() Metrics {
	start := p.med.Kernel().Now()
	p.lastChange = start
	for id := range p.tables {
		if p.dead[id] {
			continue
		}
		p.seedBase(id)
		p.scheduleBroadcast(id)
	}
	p.med.Kernel().Run()
	return p.metrics(start)
}

// Kill marks nodes dead: they neither transmit nor process receptions from
// now on. (The radio still charges them reception energy for in-flight
// packets, as real hardware would until power-off.)
func (p *Protocol) Kill(ids ...int) {
	for _, id := range ids {
		p.dead[id] = true
	}
}

// Revive clears the dead mark on nodes whose silence has ended — a
// resumed radio waking from a duty cycle, or a newly arrived node. It
// restores no routing state: entries elsewhere may still name the node's
// pre-sleep neighbors, and the revived node's own table is stale. Call
// RepairAround with the revived nodes to re-converge the neighborhood.
func (p *Protocol) Revive(ids ...int) {
	for _, id := range ids {
		p.dead[id] = false
	}
}

// Down reports whether node id is marked dead at the protocol layer.
func (p *Protocol) Down(id int) bool { return p.dead[id] }

// RepairIncremental reconverges after failures without a global re-run:
// only the members of cells that lost a node, plus alive direct neighbors
// of dead nodes, reset and re-broadcast. Routing chains never leave a cell,
// so entries elsewhere cannot pass through the dead nodes and stay valid.
// Experiment E10 compares its cost against a full periodic re-execution.
func (p *Protocol) RepairIncremental() Metrics {
	start := p.med.Kernel().Now()
	p.lastChange = start
	nw := p.med.Network()
	affected := make(map[int]bool)
	deadCells := make(map[geom.Coord]bool)
	for id, d := range p.dead {
		if !d {
			continue
		}
		deadCells[p.cellOf[id]] = true
		for _, nbr := range nw.Neighbors(id) {
			if !p.dead[nbr] {
				affected[int(nbr)] = true
			}
		}
	}
	for id := range p.tables {
		if !p.dead[id] && deadCells[p.cellOf[id]] {
			affected[id] = true
		}
	}
	return p.repairRun(affected, nil, start)
}

// RepairAround reconverges the neighborhood of an explicit disturbance —
// the nodes that just departed, arrived, slept, or woke — rather than
// re-deriving it from the global dead set. Affected nodes (the alive
// members of every disturbed node's cell, plus alive direct neighbors of
// every disturbed node, plus the disturbed nodes themselves when alive)
// re-seed their base entries and re-broadcast; their alive same-cell
// direct neighbors act as teachers, re-broadcasting their intact tables
// once without resetting, so learned entries the reset wiped are
// re-adopted and the affected region converges back to the protocol's
// fixpoint on the current live graph. Message cost scales with the
// disturbance size, never the network: every transmission originates in
// a cell the disturbance touches (see Metrics.Touched).
func (p *Protocol) RepairAround(disturbed ...int) Metrics {
	start := p.med.Kernel().Now()
	p.lastChange = start
	nw := p.med.Network()
	cells := make(map[geom.Coord]bool)
	affected := make(map[int]bool)
	for _, id := range disturbed {
		cells[p.cellOf[id]] = true
		for _, nbr := range nw.Neighbors(id) {
			if !p.dead[nbr] {
				affected[int(nbr)] = true
			}
		}
		if !p.dead[id] {
			affected[id] = true
		}
	}
	for id := range p.tables {
		if !p.dead[id] && cells[p.cellOf[id]] {
			affected[id] = true
		}
	}
	teachers := make(map[int]bool)
	for id := range affected {
		for _, nbr := range nw.Neighbors(id) {
			if !p.dead[nbr] && !affected[int(nbr)] && p.cellOf[nbr] == p.cellOf[id] {
				teachers[int(nbr)] = true
			}
		}
	}
	return p.repairRun(affected, teachers, start)
}

// repairRun is the shared repair tail: re-seed and re-broadcast the
// affected nodes in ascending id order (deterministic replay), have the
// teachers re-broadcast without resetting, drain the kernel, and report
// metrics extended with the set of cells the repair touched.
func (p *Protocol) repairRun(affected, teachers map[int]bool, start sim.Time) Metrics {
	ids := make([]int, 0, len(affected))
	for id := range affected {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		p.seedBase(id)
	}
	for _, id := range ids {
		p.scheduleBroadcast(id)
	}
	tids := make([]int, 0, len(teachers))
	for id := range teachers {
		tids = append(tids, id)
	}
	sort.Ints(tids)
	for _, id := range tids {
		p.scheduleBroadcast(id)
	}
	p.med.Kernel().Run()
	m := p.metrics(start)
	touched := make(map[geom.Coord]bool, len(affected))
	for id := range affected {
		touched[p.cellOf[id]] = true
	}
	for id := range teachers {
		touched[p.cellOf[id]] = true
	}
	m.Touched = make([]geom.Coord, 0, len(touched))
	for c := range touched {
		m.Touched = append(m.Touched, c)
	}
	sort.Slice(m.Touched, func(i, j int) bool {
		if m.Touched[i].Row != m.Touched[j].Row {
			return m.Touched[i].Row < m.Touched[j].Row
		}
		return m.Touched[i].Col < m.Touched[j].Col
	})
	m.TouchedCells = len(m.Touched)
	return m
}

// Reinforce runs one periodic re-execution round on the current state:
// every alive node re-broadcasts its table once and the kernel drains.
// Under a lossy radio a single Run can leave entries unlearned (the
// broadcast that would have taught them was dropped); the paper's remedy
// is that "the above protocol should execute periodically", which is
// exactly this call. Returns the metrics after the round.
func (p *Protocol) Reinforce() Metrics {
	start := p.med.Kernel().Now()
	p.lastChange = start
	for id := range p.tables {
		if !p.dead[id] {
			p.scheduleBroadcast(id)
		}
	}
	p.med.Kernel().Run()
	return p.metrics(start)
}

// Metrics summarizes one protocol execution. The first six fields
// predate the repair instrumentation and keep their exact meaning; the
// touched-cells fields are appended and populated only by the repair
// entry points (Run and Reinforce touch every cell by construction and
// leave them zero).
type Metrics struct {
	Broadcasts  int64    // routing-table broadcasts transmitted
	Suppressed  int64    // receptions dropped at a cell boundary
	Adopted     int64    // table entries learned from same-cell neighbors
	SetupTime   sim.Time // time from start to the last table change
	Unreachable int      // (node, direction) pairs left NULL toward in-bounds cells
	Complete    bool     // true when Unreachable == 0

	TouchedCells int          // cells the repair re-seeded or re-taught
	Touched      []geom.Coord // those cells, sorted by (row, col)
}

func (p *Protocol) metrics(start sim.Time) Metrics {
	m := Metrics{
		Broadcasts: p.broadcasts,
		Suppressed: p.suppressed,
		Adopted:    p.adopted,
	}
	if p.lastChange > start {
		m.SetupTime = p.lastChange - start
	}
	for id := range p.tables {
		if p.dead[id] {
			continue
		}
		for d := geom.North; d < geom.NumDirs; d++ {
			adj := p.cellOf[id].Step(d)
			if p.grid.InBounds(adj) && p.tables[id][d] == NoNode {
				m.Unreachable++
			}
		}
	}
	m.Complete = m.Unreachable == 0
	return m
}

// NextHop returns node id's next hop toward the adjacent cell in direction
// d, or NoNode.
func (p *Protocol) NextHop(id int, d geom.Dir) int { return p.tables[id][d] }

// ForwardPath follows routing-table entries from node id in direction d
// until it reaches a node in the adjacent cell, returning the physical hop
// sequence (excluding id itself). It returns an error if the entry chain is
// broken, cyclic, or missing — all synthesis-breaking conditions the tests
// assert never occur after a successful Run.
func (p *Protocol) ForwardPath(id int, d geom.Dir) ([]int, error) {
	target := p.cellOf[id].Step(d)
	if !p.grid.InBounds(target) {
		return nil, fmt.Errorf("vtopo: no cell %v of %v", target, p.cellOf[id])
	}
	var path []int
	cur := id
	seen := map[int]bool{id: true}
	for {
		next := p.tables[cur][d]
		if next == NoNode {
			return nil, fmt.Errorf("vtopo: node %d has no route %v", cur, d)
		}
		if p.dead[next] {
			return nil, fmt.Errorf("vtopo: route %v of %d passes through dead node %d", d, cur, next)
		}
		path = append(path, next)
		if p.cellOf[next] == target {
			return path, nil
		}
		if p.cellOf[next] != p.cellOf[id] {
			return nil, fmt.Errorf("vtopo: route left the cell at node %d", next)
		}
		if seen[next] {
			return nil, fmt.Errorf("vtopo: routing cycle at node %d", next)
		}
		seen[next] = true
		cur = next
	}
}

// RouteCells forwards a message of the given size from physical node id
// along the sequence of grid cells toward dstCell using XY routing over the
// emulated topology, charging every physical hop on the medium's ledger via
// unicast transmissions. It returns the full physical path (excluding the
// start node), or an error if any routing entry is missing. A hop the
// medium refuses or loses ends the route: RouteCells returns the path up
// to the hop's sender and an error naming the hop. This is the "user can
// choose any routing protocol implemented on the oriented grid using the
// routing table" facility.
func (p *Protocol) RouteCells(id int, dstCell geom.Coord, size int64) ([]int, error) {
	if !p.grid.InBounds(dstCell) {
		return nil, fmt.Errorf("vtopo: destination cell %v out of bounds", dstCell)
	}
	var path []int
	cur := id
	for p.cellOf[cur] != dstCell {
		var dir geom.Dir
		switch {
		case p.cellOf[cur].Col < dstCell.Col:
			dir = geom.East
		case p.cellOf[cur].Col > dstCell.Col:
			dir = geom.West
		case p.cellOf[cur].Row < dstCell.Row:
			dir = geom.South
		default:
			dir = geom.North
		}
		segment, err := p.ForwardPath(cur, dir)
		if err != nil {
			return nil, err
		}
		for _, next := range segment {
			if !p.med.Unicast(cur, next, size, nil) {
				return path, fmt.Errorf("vtopo: hop %d->%d toward cell %v lost", cur, next, dstCell)
			}
			cur = next
			path = append(path, next)
		}
	}
	return path, nil
}
