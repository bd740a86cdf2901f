// Fault handling for the physical machine: fail-stop node crashes with
// cell-leader failover. A crash silences the node's radio and deposes it
// from every role it held; if it was the elected executor of its cell's
// virtual process, the next alive cell member (in deployment order — the
// same deterministic order every member knows) is promoted and the
// intra-cell relay tree is rebuilt over the survivors. Inter-cell
// forwarding belongs to the topology-emulation tables: packets relayed
// through other dead nodes are dropped by the radio, and callers reconverge
// those tables between rounds with Protocol.RepairIncremental — the
// Section 5.1 repair path, measured in E10.
package emul

import "wsnva/internal/geom"

// Kill fails physical node id fail-stop. Safe to call for an already-dead
// node (no-op). Killing every member of a cell leaves the binding pointing
// at a dead node; traffic for that virtual node is then dropped by the
// radio, and the labeling round degrades exactly as the DES fault driver
// models.
func (m *Machine) Kill(id int) {
	if !m.med.Alive(id) {
		return
	}
	m.med.Kill(id)
	m.proto.Kill(id)
	m.repairRoles(m.proto.CellOf(id))
}

// up reports whether node id is powered and awake — the liveness gate
// role management consults. The radio's Alive alone keeps sleeping nodes
// eligible, which a leader promotion must not do.
func (m *Machine) up(id int) bool { return m.med.Alive(id) && !m.med.Suspended(id) }

// repairRoles re-establishes one cell's executor and relay tree after a
// liveness change: if the bound leader is down or asleep, the first up
// member in deployment order — the same deterministic order every member
// knows — is promoted, and the intra-cell tree is rebuilt over the up
// members either way.
func (m *Machine) repairRoles(cell geom.Coord) {
	if cur, ok := m.bnd.Leaders[cell]; ok && !m.up(cur) {
		for _, cand := range m.members[m.hier.Grid.Index(cell)] {
			if m.up(cand) {
				m.bnd.Leaders[cell] = cand
				m.failovers++
				break
			}
		}
	}
	m.rebuildCell(cell)
}

// Failovers counts cell-leader promotions performed by Kill.
func (m *Machine) Failovers() int64 { return m.failovers }

// rebuildCell recomputes one cell's intra-cell relay tree over its up
// (alive and awake) members, rooted at the current bound leader. Members
// the failures cut off from the leader lose their next-hop entry, so
// forward drops their traffic instead of looping or panicking. If the
// leader itself is down (the whole cell was lost or sleeps), every entry
// is removed.
func (m *Machine) rebuildCell(cell geom.Coord) {
	idx := m.hier.Grid.Index(cell)
	for _, id := range m.members[idx] {
		m.toLeader[id] = noRoute
	}
	m.relayTree(idx)
}

// relayTree roots the relay tree of the cell at grid index idx at its
// bound leader: a BFS over the cell's up members, in neighbor order,
// whose parent pointers are the next hops toward the leader (the leader
// names itself). Every member must read noRoute on entry. It returns the
// number of members reached, 0 when the leader is down.
func (m *Machine) relayTree(idx int) int {
	leader := m.bnd.Leaders[m.hier.Grid.CoordOf(idx)]
	if !m.up(leader) {
		return 0
	}
	nw := m.med.Network()
	m.toLeader[leader] = int32(leader)
	queue := append(m.queue[:0], int32(leader))
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range nw.Neighbors(int(v)) {
			if m.cell[u] == int32(idx) && m.toLeader[u] == noRoute && m.up(int(u)) {
				m.toLeader[u] = v
				queue = append(queue, u)
			}
		}
	}
	m.queue = queue
	return len(queue)
}
