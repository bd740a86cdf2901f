package varch

import (
	"fmt"
	"sort"

	"wsnva/internal/geom"
	"wsnva/internal/sim"
	"wsnva/internal/trace"
)

// Collective computation primitives (Section 3.2 lists "summing, sorting,
// or ranking a set of data values from a set of sensor nodes"). Each
// primitive gathers the values held by all members of a level-k group at
// the group's leader, charges the ledger for every hop and computation
// under the cost model, and returns the result together with the modeled
// critical-path latency.
//
// Two gather strategies are provided as an ablation pair:
//
//   - Direct: every member sends its value straight to the leader.
//   - Convergecast: values climb the group hierarchy one level at a time,
//     with sub-leaders combining (for Sum/Min/Max) or concatenating (for
//     Sort/Rank) before forwarding.
//
// For aggregations with constant-size partial results, convergecast trades
// a logarithmic latency factor for a large energy saving on big groups;
// the E9 experiment table quantifies the trade.

// Strategy selects the gather pattern for collectives.
type Strategy int

// Gather strategies.
const (
	Direct Strategy = iota
	Convergecast
)

func (s Strategy) String() string {
	switch s {
	case Direct:
		return "direct"
	case Convergecast:
		return "convergecast"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Values supplies the local value of each group member.
type Values func(c geom.Coord) int64

// emitGroup records a collective primitive invocation at the group leader.
func (vm *Machine) emitGroup(leader geom.Coord, level int, prim string, strat Strategy) {
	if vm.tracer == nil {
		return
	}
	vm.emit(trace.GroupOp, leader, trace.NoCell, level, 0, prim+"/"+strat.String())
}

// GroupSum gathers and sums the members' values at the level-k leader.
func (vm *Machine) GroupSum(leader geom.Coord, level int, vals Values, strat Strategy) (int64, sim.Time) {
	vm.emitGroup(leader, level, "sum", strat)
	return vm.reduce(leader, level, vals, strat, func(a, b int64) int64 { return a + b })
}

// GroupMin gathers the minimum of the members' values at the leader.
func (vm *Machine) GroupMin(leader geom.Coord, level int, vals Values, strat Strategy) (int64, sim.Time) {
	vm.emitGroup(leader, level, "min", strat)
	return vm.reduce(leader, level, vals, strat, func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	})
}

// GroupMax gathers the maximum of the members' values at the leader.
func (vm *Machine) GroupMax(leader geom.Coord, level int, vals Values, strat Strategy) (int64, sim.Time) {
	vm.emitGroup(leader, level, "max", strat)
	return vm.reduce(leader, level, vals, strat, func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	})
}

// reduce runs a combining gather: partial results are a single data unit
// regardless of how many inputs they summarize.
func (vm *Machine) reduce(leader geom.Coord, level int, vals Values, strat Strategy, combine func(a, b int64) int64) (int64, sim.Time) {
	h := vm.Hier
	g := h.Grid
	switch strat {
	case Direct:
		members := h.Followers(leader, level)
		acc := vals(leader)
		var maxLat sim.Time
		received := int64(0)
		for _, m := range members {
			if m == leader {
				continue
			}
			lat, ok := vm.transfer(m, leader, 1)
			if !ok {
				continue
			}
			if lat > maxLat {
				maxLat = lat
			}
			acc = combine(acc, vals(m))
			received++
		}
		// Leader combines one unit per received message.
		lat := vm.Compute(leader, received)
		return acc, maxLat + lat

	case Convergecast:
		// partial[c] holds the combined value of the level-s block led by c.
		partial := make(map[geom.Coord]int64, g.N())
		for _, m := range h.Followers(leader, level) {
			partial[m] = vals(m)
		}
		var total sim.Time
		for s := 1; s <= level; s++ {
			var levelLat sim.Time
			for _, sub := range h.leadersWithin(leader, level, s) {
				children := h.Children(sub, s)
				acc := partial[children[0]]
				received := int64(0)
				for _, ch := range children[1:] {
					lat, ok := vm.transfer(ch, sub, 1)
					if ok {
						if lat > levelLat {
							levelLat = lat
						}
						acc = combine(acc, partial[ch])
						received++
					}
					delete(partial, ch)
				}
				vm.Compute(sub, received)
				partial[sub] = acc
			}
			// All sub-blocks of a level work in parallel; the level's
			// latency is the worst child transfer plus the 3-way combine.
			total += levelLat + sim.Time(vm.ledger.Model().ComputeLatency(3))
		}
		return partial[leader], total
	}
	panic(fmt.Sprintf("varch: unknown strategy %v", strat))
}

// GroupSort gathers every member's value at the leader and returns them
// sorted ascending. Unlike reductions, the full multiset must travel, so
// message sizes grow with the number of values carried.
func (vm *Machine) GroupSort(leader geom.Coord, level int, vals Values, strat Strategy) ([]int64, sim.Time) {
	vm.emitGroup(leader, level, "sort", strat)
	h := vm.Hier
	var out []int64
	var latency sim.Time
	switch strat {
	case Direct:
		members := h.Followers(leader, level)
		for _, m := range members {
			if m != leader {
				lat, ok := vm.transfer(m, leader, 1)
				if !ok {
					continue
				}
				if lat > latency {
					latency = lat
				}
			}
			out = append(out, vals(m))
		}
	case Convergecast:
		sets := make(map[geom.Coord][]int64)
		for _, m := range h.Followers(leader, level) {
			sets[m] = []int64{vals(m)}
		}
		for s := 1; s <= level; s++ {
			var levelLat sim.Time
			for _, sub := range h.leadersWithin(leader, level, s) {
				children := h.Children(sub, s)
				acc := sets[children[0]]
				for _, ch := range children[1:] {
					if len(sets[ch]) == 0 {
						// The child sub-block lost everything below it;
						// nothing to forward.
						delete(sets, ch)
						continue
					}
					lat, ok := vm.transfer(ch, sub, int64(len(sets[ch])))
					if ok {
						if lat > levelLat {
							levelLat = lat
						}
						acc = append(acc, sets[ch]...)
					}
					delete(sets, ch)
				}
				sets[sub] = acc
			}
			latency += levelLat
		}
		out = sets[leader]
	default:
		panic(fmt.Sprintf("varch: unknown strategy %v", strat))
	}
	// Leader sorts: charge n·⌈log2 n⌉ comparisons as compute units.
	n := int64(len(out))
	work := n * int64(ceilLog2(n))
	latency += vm.Compute(leader, work)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, latency
}

// GroupRank returns the rank (1-based position in ascending order) that
// value would occupy among the group's values, i.e. 1 + |{v : v < value}|.
// Communication is identical to a sum gather: each member contributes a
// 0/1 indicator.
func (vm *Machine) GroupRank(leader geom.Coord, level int, vals Values, value int64, strat Strategy) (int64, sim.Time) {
	vm.emitGroup(leader, level, "rank", strat)
	below, lat := vm.reduce(leader, level, func(c geom.Coord) int64 {
		if vals(c) < value {
			return 1
		}
		return 0
	}, strat, func(a, b int64) int64 { return a + b })
	return below + 1, lat
}

// transfer moves one size-unit message of a collective from one node to
// another and returns its latency plus whether it was delivered. It is
// synchronous — collectives model their own schedule — so the attempts
// Send would schedule are summed instead: a dead sender transmits nothing,
// every attempt is charged and draws the loss channel, the ARQ (when
// enabled) adds its backoff before each retransmission and the
// reverse-route acknowledgment on success, and a dead receiver drops the
// delivery.
func (vm *Machine) transfer(from, to geom.Coord, size int64) (sim.Time, bool) {
	if from == to {
		return 0, vm.aliveIdx(vm.Hier.Grid.Index(from))
	}
	if !vm.accept(from, to, 0, size, "route") {
		return 0, false
	}
	var lat sim.Time
	for a := 0; ; a++ {
		hopLat, lost := vm.attempt(from, to, 0, size)
		lat += hopLat
		if !lost {
			break
		}
		if !vm.reliable.Enabled() || a == vm.reliable.MaxRetries {
			return lat, false
		}
		lat += vm.reliable.Backoff(a + 1)
		vm.fstats.Retransmissions++
		if vm.tracer != nil {
			vm.emit(trace.Retry, from, to, 0, size, "")
		}
	}
	idx := vm.Hier.Grid.Index(to)
	if !vm.aliveIdx(idx) {
		vm.deadDrop(to, from, 0, size)
		return lat, false
	}
	if vm.reliable.Enabled() {
		lat += vm.ack(to, from, 0)
	}
	vm.delivered(idx, to, from, size, "route")
	return lat, true
}

// leadersWithin returns the level-s leaders inside the level-k block led by
// leader, in row-major order.
func (h *Hierarchy) leadersWithin(leader geom.Coord, level, s int) []geom.Coord {
	size := h.BlockSize(level)
	step := h.BlockSize(s)
	var out []geom.Coord
	for row := leader.Row; row < leader.Row+size; row += step {
		for col := leader.Col; col < leader.Col+size; col += step {
			out = append(out, geom.Coord{Col: col, Row: row})
		}
	}
	return out
}

func ceilLog2(n int64) int {
	if n <= 1 {
		return 0
	}
	l := 0
	for v := n - 1; v > 0; v >>= 1 {
		l++
	}
	return l
}
