// Package vtree implements the alternative virtual topology the paper
// names for non-uniform deployments: "For non-uniform deployments, other
// virtual topologies such as a tree could be more appropriate" (Section
// 3.2). When nodes cluster, grid cells go empty and the Section 5.1
// emulation has nothing to bind; a spanning tree rooted at a sink exists
// whenever the network is connected, regardless of node distribution.
//
// The package provides the three protocol layers a tree virtual topology
// needs, all running over the shared radio medium:
//
//   - Build: a BFS flood from the root; each node adopts the first (and
//     any subsequently shorter) path toward the root, yielding a
//     shortest-path spanning tree. The closing handshake — every node
//     unicasts an "adopt" message to its chosen parent — is what lets each
//     parent learn its child set without any global knowledge.
//   - Aggregate: convergecast; leaves start, interior nodes combine their
//     subtree partials and forward one fixed-size partial to their parent.
//   - Disseminate: broadcast down the tree from the root.
//
// Costs are charged to the medium's ledger like every other protocol, so
// tree and grid architectures are directly comparable (experiment E12).
package vtree

import (
	"fmt"

	"wsnva/internal/radio"
	"wsnva/internal/sim"
)

// NoNode marks a missing parent (the root, or an unreached node).
const NoNode = -1

// message kinds exchanged by the protocol.
type buildMsg struct {
	depth int // sender's depth in the tree under construction
}

type adoptMsg struct {
	parent int // the receiver the sender has chosen as parent
}

type aggMsg struct {
	partial int64
}

// buildMsgSize is the size of a build broadcast: one depth word.
const buildMsgSize = 1

// adoptMsgSize is the size of the parent-adoption unicast.
const adoptMsgSize = 1

// aggMsgSize is the size of one convergecast partial.
const aggMsgSize = 1

// Protocol holds the tree state over one deployment.
type Protocol struct {
	med  *radio.Medium
	root int

	parent   []int
	depth    []int
	children [][]int
	pending  []bool
	fire     []func() // per node: its build broadcast, bound once

	broadcasts int64
	adoptions  int64
	lastChange sim.Time
}

// New prepares a tree protocol over med. Call Build.
func New(med *radio.Medium) *Protocol {
	n := med.Network().N()
	p := &Protocol{
		med:      med,
		root:     NoNode,
		parent:   make([]int, n),
		depth:    make([]int, n),
		children: make([][]int, n),
		pending:  make([]bool, n),
		fire:     make([]func(), n),
	}
	for i := range p.parent {
		p.parent[i] = NoNode
		p.depth[i] = -1
		p.fire[i] = func() { p.broadcast(i) }
	}
	return p
}

// Metrics summarizes one protocol phase.
type Metrics struct {
	Broadcasts int64 // build broadcasts (or dissemination forwards)
	Adoptions  int64 // parent-adoption unicasts
	Reached    int   // nodes in the tree (root included)
	MaxDepth   int
	SetupTime  sim.Time
}

// Build constructs the BFS tree rooted at root and returns the metrics.
// It installs its own radio receiver; run it before other protocols reuse
// the medium.
func (p *Protocol) Build(root int) Metrics {
	nw := p.med.Network()
	p.root = root
	p.depth[root] = 0
	start := p.med.Kernel().Now()
	p.lastChange = start
	p.med.SetReceiver(p.onPacket)
	p.scheduleBroadcast(root)
	p.med.Kernel().Run()

	// Closing handshake: every reached non-root node tells its parent it
	// adopted it, so parents learn their child sets.
	for id := 0; id < nw.N(); id++ {
		if id == root || p.parent[id] == NoNode {
			continue
		}
		p.adoptions++
		p.med.Unicast(id, p.parent[id], adoptMsgSize, adoptMsg{parent: p.parent[id]})
		p.children[p.parent[id]] = append(p.children[p.parent[id]], id)
	}
	p.med.Kernel().Run()

	m := Metrics{
		Broadcasts: p.broadcasts,
		Adoptions:  p.adoptions,
	}
	for id := 0; id < nw.N(); id++ {
		if p.depth[id] >= 0 {
			m.Reached++
			if p.depth[id] > m.MaxDepth {
				m.MaxDepth = p.depth[id]
			}
		}
	}
	if p.lastChange > start {
		m.SetupTime = p.lastChange - start
	}
	return m
}

// onPacket is the medium's receiver while Build runs.
func (p *Protocol) onPacket(id int, pkt radio.Packet) {
	msg, ok := pkt.Payload.(buildMsg)
	if !ok {
		return
	}
	cand := msg.depth + 1
	if p.depth[id] != -1 && cand >= p.depth[id] {
		return
	}
	p.depth[id] = cand
	p.parent[id] = pkt.From
	p.lastChange = p.med.Kernel().Now()
	p.scheduleBroadcast(id)
}

func (p *Protocol) scheduleBroadcast(id int) {
	if p.pending[id] {
		return
	}
	p.pending[id] = true
	p.med.Kernel().After(1, p.fire[id])
}

// broadcast sends node id's scheduled build broadcast: its depth at
// transmission.
func (p *Protocol) broadcast(id int) {
	p.pending[id] = false
	p.broadcasts++
	p.med.Broadcast(id, buildMsgSize, buildMsg{depth: p.depth[id]})
}

// Parent returns node id's tree parent, or NoNode for the root and
// unreached nodes.
func (p *Protocol) Parent(id int) int { return p.parent[id] }

// Depth returns node id's tree depth, or -1 if unreached.
func (p *Protocol) Depth(id int) int { return p.depth[id] }

// Children returns node id's child set. Callers must not modify it.
func (p *Protocol) Children(id int) []int { return p.children[id] }

// Root returns the tree root.
func (p *Protocol) Root() int { return p.root }

// Validate checks the structural invariants: every reached non-root node
// has a reached parent one hop shallower that is a radio neighbor, and
// child sets mirror parent pointers.
func (p *Protocol) Validate() error {
	nw := p.med.Network()
	for id := 0; id < nw.N(); id++ {
		if id == p.root {
			if p.parent[id] != NoNode || p.depth[id] != 0 {
				return fmt.Errorf("vtree: root state corrupt")
			}
			continue
		}
		if p.depth[id] == -1 {
			if p.parent[id] != NoNode {
				return fmt.Errorf("vtree: unreached node %d has a parent", id)
			}
			continue
		}
		par := p.parent[id]
		if par == NoNode {
			return fmt.Errorf("vtree: reached node %d has no parent", id)
		}
		if p.depth[par] != p.depth[id]-1 {
			return fmt.Errorf("vtree: node %d depth %d under parent depth %d", id, p.depth[id], p.depth[par])
		}
		neighbor := false
		for _, n := range nw.Neighbors(id) {
			if int(n) == par {
				neighbor = true
			}
		}
		if !neighbor {
			return fmt.Errorf("vtree: parent edge %d->%d is not a radio edge", id, par)
		}
		found := false
		for _, ch := range p.children[par] {
			if ch == id {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("vtree: parent %d does not list child %d", par, id)
		}
	}
	return nil
}

// Aggregate runs one convergecast of vals up the tree with the given
// combining function, returning the root's total and the message count.
// Partials are one data unit each regardless of subtree size — the
// compression that makes tree aggregation cheap.
func (p *Protocol) Aggregate(vals func(id int) int64, combine func(a, b int64) int64) (int64, int64) {
	if p.root == NoNode {
		panic("vtree: Aggregate before Build")
	}
	nw := p.med.Network()
	partial := make([]int64, nw.N())
	waiting := make([]int, nw.N())
	result := int64(0)
	var messages int64

	for id := 0; id < nw.N(); id++ {
		if p.depth[id] == -1 {
			continue
		}
		partial[id] = vals(id)
		waiting[id] = len(p.children[id])
	}
	var send func(id int)
	complete := func(id int) {
		if id == p.root {
			result = partial[id]
			return
		}
		send(id)
	}
	p.med.SetReceiver(func(id int, pkt radio.Packet) {
		msg, ok := pkt.Payload.(aggMsg)
		if !ok {
			return
		}
		partial[id] = combine(partial[id], msg.partial)
		waiting[id]--
		if waiting[id] == 0 {
			complete(id)
		}
	})
	send = func(id int) {
		messages++
		p.med.Unicast(id, p.parent[id], aggMsgSize, aggMsg{partial: partial[id]})
	}
	// Leaves start immediately.
	for id := 0; id < nw.N(); id++ {
		if p.depth[id] >= 0 && waiting[id] == 0 {
			complete(id)
		}
	}
	p.med.Kernel().Run()
	return result, messages
}

// Disseminate floods a payload of the given size down the tree from the
// root (each node forwards once to its children via broadcast) and returns
// the number of forwards.
func (p *Protocol) Disseminate(size int64) int64 {
	if p.root == NoNode {
		panic("vtree: Disseminate before Build")
	}
	nw := p.med.Network()
	var forwards int64
	received := make([]bool, nw.N())
	p.med.SetReceiver(func(id int, pkt radio.Packet) {
		if pkt.From != p.parent[id] || received[id] {
			return // only the tree edge counts; sibling overhear is free
		}
		received[id] = true
		if len(p.children[id]) > 0 {
			forwards++
			p.med.Broadcast(id, size, pkt.Payload)
		}
	})
	received[p.root] = true
	if len(p.children[p.root]) > 0 {
		forwards++
		p.med.Broadcast(p.root, size, "dissemination")
	}
	p.med.Kernel().Run()
	return forwards
}
