package varch

import (
	"wsnva/internal/fault"
	"wsnva/internal/geom"
	"wsnva/internal/trace"
)

// Fault wiring for the virtual machine: a fail-stop alive gate, one loss
// channel, the stop-and-wait ARQ policy from internal/fault, and leader
// failover for the group-communication primitives. Every message moves
// through the same flight (machine.go), so loss and ARQ apply to sends,
// collectives and group broadcasts alike. All of it is opt-in: a machine
// with no channel, no reliability, and no kills behaves — charge for
// charge and event for event — exactly like the bare machine, which is
// what keeps the pre-fault experiment tables byte-identical.

// FaultStats counts the fault layer's observable outcomes. All counters are
// cumulative over the machine's lifetime.
type FaultStats struct {
	Suppressed      int64 // sends attempted by dead nodes (silently dropped)
	Lost            int64 // transmission attempts that failed the loss draw
	DeadDrops       int64 // arrivals at nodes that died before delivery
	Retransmissions int64 // ARQ retransmission attempts
	Acks            int64 // acknowledgments charged by the ARQ
	Delivered       int64 // messages handed over at an alive node
}

// SetChannel makes every transmission attempt draw its loss from c, in
// attempt order: sends and their retransmissions, and every transfer of
// the collectives and group broadcasts. nil, the default, is lossless and
// draws nothing.
func (vm *Machine) SetChannel(c fault.Channel) { vm.channel = c }

// SetReliability arms the ARQ policy for Send, SendToLeader, and the
// collectives: every attempt pays the full route energy, a successful
// delivery pays the acknowledgment along the reverse route, and a lost
// attempt is retransmitted after a capped exponential backoff, at most
// r.MaxRetries times. The zero Reliability disables ARQ.
func (vm *Machine) SetReliability(r fault.Reliability) { vm.reliable = r }

// Kill fails the virtual node with the given grid index, fail-stop: it
// stops sending (sends are suppressed) and stops receiving (arrivals are
// dropped without invoking the receiver), and every kernel event it owns
// is cancelled — pending deliveries to it, its retry timers. It is the
// machine's one fail-stop: a crash schedule armed with fault.Schedule.Arm
// and a battery bank's depletion route both call it. Killing a dead node
// is a no-op.
func (vm *Machine) Kill(node int) {
	if vm.alive == nil {
		vm.alive = make([]bool, vm.Hier.Grid.N())
		for i := range vm.alive {
			vm.alive[i] = true
		}
	}
	if !vm.alive[node] {
		return
	}
	vm.alive[node] = false
	vm.emit(trace.Death, vm.Hier.Grid.CoordOf(node), trace.NoCell, 0, 0, "")
	vm.kernel.CancelOwner(node)
}

// KillCoord is Kill addressed by grid coordinate.
func (vm *Machine) KillCoord(c geom.Coord) { vm.Kill(vm.Hier.Grid.Index(c)) }

// Alive reports whether the virtual node at c is still up.
func (vm *Machine) Alive(c geom.Coord) bool {
	return vm.aliveIdx(vm.Hier.Grid.Index(c))
}

func (vm *Machine) aliveIdx(i int) bool { return vm.alive == nil || vm.alive[i] }

// FaultStats returns the fault layer's counters.
func (vm *Machine) FaultStats() FaultStats { return vm.fstats }

// ActingLeaderAt resolves the level-k leader for c: the static leader
// while no node has died, otherwise Hierarchy.ActingLeader over the
// machine's live nodes — the first alive member of the block in row-major
// grid order. If the whole block is dead, the static leader is returned
// and the message will evaporate at delivery.
func (vm *Machine) ActingLeaderAt(c geom.Coord, level int) geom.Coord {
	leader := vm.Hier.LeaderAt(c, level)
	if vm.alive == nil {
		return leader
	}
	acting, ok := vm.Hier.ActingLeader(c, level, vm.Alive)
	if !ok {
		return leader
	}
	if acting != leader && vm.tracer != nil {
		vm.emit(trace.Failover, acting, leader, level, 0, "acting leader")
	}
	return acting
}
