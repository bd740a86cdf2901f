package varch

import (
	"wsnva/internal/geom"
	"wsnva/internal/sim"
)

// Downward group communication and synchronization primitives. Section 3.2
// requires communication primitives "for a set of nodes (collective)"; the
// related-work discussion points at UW-API, whose region collectives
// include barrier synchronization. These primitives complete the middleware
// surface: a leader can disseminate to its whole group, and a group can
// synchronize at its leader.

// GroupBroadcast delivers a payload from a level-k leader to every member
// of its group. The dissemination pattern is the reverse of the quad-tree
// convergecast: the payload descends the sub-hierarchy one level at a time
// (leader → its 4 level-(k-1) sub-leaders → … → all members), so every
// transfer is short and the cost is balanced instead of radiating every
// copy from the leader. Returns the modeled completion latency; each
// member the payload reached gets it through the machine's receiver at
// that time, in Followers order.
func (vm *Machine) GroupBroadcast(leader geom.Coord, level int, size int64, payload any) sim.Time {
	h := vm.Hier
	if !h.IsLeader(leader, level) {
		panic("varch: GroupBroadcast from a non-leader")
	}
	var total sim.Time
	holders := []geom.Coord{leader}
	for s := level; s >= 1; s-- {
		var levelLat sim.Time
		var next []geom.Coord
		for _, holder := range holders {
			for _, ch := range h.Children(holder, s) {
				if ch != holder {
					lat, ok := vm.transfer(holder, ch, size)
					if !ok {
						// The transfer died (lost, or ch crashed): ch and its
						// whole sub-block never see the payload.
						continue
					}
					if lat > levelLat {
						levelLat = lat
					}
				}
				next = append(next, ch)
			}
		}
		holders = next
		total += levelLat
	}
	// Deliver to every member the dissemination reached (including the
	// leader) at the modeled time, each copy one settled flight: the
	// transfers above already paid its route, losses and acks. With the
	// fault layer idle every member is reached and no tracking set is
	// built.
	var reached map[geom.Coord]bool
	if vm.alive != nil || vm.channel != nil {
		reached = make(map[geom.Coord]bool, len(holders))
		for _, hd := range holders {
			reached[hd] = true
		}
	}
	g := h.Grid
	at := vm.kernel.Now() + total
	for _, m := range h.Followers(leader, level) {
		if reached != nil && !reached[m] {
			continue
		}
		f := vm.newFlight(leader, m, 0, size, payload)
		f.settled = true
		vm.kernel.AtOwned(g.Index(m), at, f.arriveFn)
	}
	return total
}

// Barrier synchronizes a level-k group: every member contributes one unit
// up the hierarchy (convergecast) and the leader releases the group with a
// unit broadcast back down. Returns the modeled latency of the full
// round trip — the group cannot proceed before it. The paper's synchronous
// execution regime (TDMA) can be built from exactly this primitive.
func (vm *Machine) Barrier(leader geom.Coord, level int) sim.Time {
	// Up phase: reuse the reduction gather at unit size.
	_, up := vm.GroupSum(leader, level, func(geom.Coord) int64 { return 1 }, Convergecast)
	// Down phase: unit release message along the same structure.
	down := vm.GroupBroadcast(leader, level, 1, barrierRelease{leader: leader, level: level})
	return up + down
}

// barrierRelease is the payload delivered to members when a barrier opens.
type barrierRelease struct {
	leader geom.Coord
	level  int
}
