// Package emul is the runtime system assembled: it executes synthesized
// programs over the *physical* network, with every virtual-architecture
// primitive implemented by the Section 5 protocols — topology emulation
// (vtopo) carries messages cell to cell, and the elected per-cell leaders
// (binding) are the physical processors of the virtual processes. Where
// varch.Machine is the abstract machine the algorithm designer reasons on,
// emul.Machine is the thing that actually runs in the field; experiment
// E16 runs the same application on both and compares the bills, which is
// the whole-application version of the paper's analysis-to-measurement
// correspondence promise. Stack is the one way to assemble it: it owns the
// ledger, the kernel and the radio medium, and runs the Section 5 phases
// in the paper's order.
package emul

import (
	"fmt"

	"wsnva/internal/binding"
	"wsnva/internal/cost"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/program"
	"wsnva/internal/radio"
	"wsnva/internal/regions"
	"wsnva/internal/routing"
	"wsnva/internal/sim"
	"wsnva/internal/synth"
	"wsnva/internal/trace"
	"wsnva/internal/varch"
	"wsnva/internal/vtopo"
)

// Machine executes virtual processes on their bound physical nodes.
type Machine struct {
	hier  *varch.Hierarchy
	proto *vtopo.Protocol
	bnd   *binding.Binding
	med   *radio.Medium

	// intra-cell routing: next-hop tables toward each cell's leader,
	// computed over the cell-induced subgraphs (the same local knowledge
	// the Section 5.2 election already spread through each cell).
	members  [][]int // per grid index: the cell's nodes in deployment order
	cell     []int32 // per node: its cell's grid index
	toLeader []int32 // per node: next hop toward its cell's leader, or noRoute
	queue    []int32 // relay-tree BFS scratch

	// recv receives every delivered application message, with the
	// destination's grid index (nil: every virtual node is deaf).
	recv     func(to int, msg varch.Message)
	msgs     int64
	physHops int64

	// Fault layer (see faults.go).
	failovers int64

	tracer *trace.Tracer
}

// SetTracer attaches an observability tracer (nil detaches). The machine
// emits virtual-plane events; attach the same tracer to its stack
// (Stack.SetTracer) to interleave the physical-plane story.
func (m *Machine) SetTracer(t *trace.Tracer) { m.tracer = t }

// vemit records a virtual-plane event: coordinates name the virtual node
// and ID stays -1, so virtual identities never collide with the physical
// node ids the radio and ledger events on the same trace use. Callers
// guard with m.tracer != nil.
func (m *Machine) vemit(kind trace.Kind, c, peer geom.Coord, bytes int64, detail string) {
	m.tracer.EmitCell(m.med.Kernel().Now(), kind, c, -1, peer, 0, bytes, detail)
}

// vphase marks a run boundary on the trace; virtual-plane phases carry no
// node identity at all.
func (m *Machine) vphase(detail string) {
	m.tracer.EmitRun(m.med.Kernel().Now(), trace.Phase, 0, detail)
}

// appMsg is the on-air payload for application traffic: the virtual
// message plus its virtual destination, so the entering node of the
// destination cell can finish the intra-cell leg.
type appMsg struct {
	to  geom.Coord
	msg varch.Message
}

// noRoute marks a node with no relay-tree path to its cell's leader.
const noRoute = -1

// New assembles the physical machine from an emulated topology and a
// binding. The vtopo protocol must have Run() to completion; the binding
// must come from the same medium, and every node must be up.
func New(h *varch.Hierarchy, proto *vtopo.Protocol, bnd *binding.Binding, med *radio.Medium) (*Machine, error) {
	nw := med.Network()
	m := &Machine{
		hier:     h,
		proto:    proto,
		bnd:      bnd,
		med:      med,
		members:  nw.CellMembers(h.Grid),
		cell:     make([]int32, nw.N()),
		toLeader: make([]int32, nw.N()),
	}
	for idx, cellNodes := range m.members {
		for _, id := range cellNodes {
			m.cell[id] = int32(idx)
			m.toLeader[id] = noRoute
		}
	}
	// Build intra-cell next hops toward each leader (every cell is
	// connected by deployment precondition).
	for idx, cellNodes := range m.members {
		cell := h.Grid.CoordOf(idx)
		if _, ok := bnd.Leaders[cell]; !ok {
			return nil, fmt.Errorf("emul: cell %v has no bound leader", cell)
		}
		if m.relayTree(idx) != len(cellNodes) {
			return nil, fmt.Errorf("emul: cell %v subgraph disconnected", cell)
		}
	}
	// Install the application's radio receiver: forward toward the
	// destination cell, then toward its leader, then deliver.
	med.SetReceiver(m.onPacket)
	return m, nil
}

// SetReceiver installs the function that consumes every application
// message delivered to a virtual node, replacing any previous one:
// recv(to, msg) runs, with the destination's grid index, on that cell's
// elected leader. A nil receiver makes every virtual node deaf.
func (m *Machine) SetReceiver(recv func(to int, msg varch.Message)) { m.recv = recv }

// Kernel returns the simulation kernel (shared with the medium).
func (m *Machine) Kernel() *sim.Kernel { return m.med.Kernel() }

// Send moves a virtual message between virtual nodes over the physical
// network: the source cell's leader forwards it along the emulated grid
// route; the first node reached in the destination cell relays it up the
// intra-cell tree to the destination leader, which runs the receiver.
func (m *Machine) Send(from, to geom.Coord, size int64, payload any) {
	src, ok := m.bnd.Leaders[from]
	if !ok {
		panic(fmt.Sprintf("emul: no leader bound for %v", from))
	}
	m.msgs++
	if m.tracer != nil {
		m.vemit(trace.Send, from, to, size, "")
	}
	env := appMsg{to: to, msg: varch.Message{From: from, Size: size, Payload: payload}}
	if from == to {
		// Self-delivery, like the virtual machine: free and immediate.
		m.med.Kernel().After(0, func() { m.dispatch(src, env) })
		return
	}
	m.forward(src, env)
}

// SendToLeader implements the group-communication primitive.
func (m *Machine) SendToLeader(from geom.Coord, level int, size int64, payload any) {
	m.Send(from, m.hier.LeaderAt(from, level), size, payload)
}

// forward advances the message one physical hop from node id and schedules
// the continuation at the receiving node.
func (m *Machine) forward(id int, env appMsg) {
	myCell := m.proto.CellOf(id)
	var next int
	if myCell == env.to {
		// Intra-cell leg toward the leader.
		hop := int(m.toLeader[id])
		if hop == noRoute {
			// Failures cut this relay off from its cell's leader.
			if m.tracer != nil {
				m.vemit(trace.Drop, env.to, env.msg.From, env.msg.Size, "unrouted: no path to leader")
			}
			return
		}
		next = hop
		if next == id {
			m.dispatch(id, env)
			return
		}
	} else {
		dir, _ := routing.NextHopXY(myCell, env.to)
		hop, err := m.proto.ForwardPath(id, dir)
		if err != nil {
			// No alive route in that direction (ForwardPath refuses chains
			// through dead nodes). Complete fault-free tables never err here.
			if m.tracer != nil {
				m.vemit(trace.Drop, env.to, env.msg.From, env.msg.Size, "unrouted: no forward path")
			}
			return
		}
		next = hop[0]
	}
	m.physHops++
	m.med.Unicast(id, next, env.msg.Size, env)
}

// onPacket receives traffic at a physical node. Protocol packets chain
// to the routing layer — the machine owns the medium's receiver, and
// without the chain a repair's adoption cascade would fall on deaf
// radios — and application traffic is forwarded toward its cell.
func (m *Machine) onPacket(id int, pkt radio.Packet) {
	if m.proto.Deliver(id, pkt) {
		return
	}
	env, ok := pkt.Payload.(appMsg)
	if !ok {
		return
	}
	m.forward(id, env)
}

// dispatch hands a message to the destination virtual node's receiver. A
// leader that died or was deposed while the message was in flight drops it
// — the virtual process has moved (or died) with its executor.
func (m *Machine) dispatch(id int, env appMsg) {
	if !m.up(id) || m.bnd.Leaders[env.to] != id {
		if m.tracer != nil {
			m.vemit(trace.Drop, env.to, env.msg.From, env.msg.Size, "unrouted: dead or deposed leader")
		}
		return
	}
	if m.tracer != nil {
		m.vemit(trace.Deliver, env.to, env.msg.From, env.msg.Size, "")
	}
	if m.recv != nil {
		m.recv(m.hier.Grid.Index(env.to), env.msg)
	}
}

// Compute charges the virtual node's physical executor.
func (m *Machine) Compute(c geom.Coord, units int64) {
	m.med.Ledger().Charge(m.bnd.Leaders[c], cost.Compute, units)
}

// Sense charges the executor for one sample.
func (m *Machine) Sense(c geom.Coord, units int64) {
	m.med.Ledger().Charge(m.bnd.Leaders[c], cost.Sense, units)
}

// Stats returns application messages injected and physical hops traversed.
func (m *Machine) Stats() (msgs, physHops int64) { return m.msgs, m.physHops }

// Result mirrors synth.Result for the physical run.
type Result struct {
	// Final is the exfiltrated summary for labeling runs; generic programs
	// deliver whatever they exfiltrate through Exfiltrated.
	Final       *regions.Summary
	Exfiltrated any
	Completion  sim.Time
	RuleFirings int64
	PhysHops    int64
}

// emulFx adapts the physical machine to program.Effector for one node.
type emulFx struct {
	m     *Machine
	coord geom.Coord
	out   *Result
}

func (f *emulFx) Send(level int, size int64, payload any) {
	f.m.SendToLeader(f.coord, level, size, payload)
}
func (f *emulFx) Exfiltrate(result any) {
	if f.out.Exfiltrated == nil {
		f.out.Exfiltrated = result
		f.out.Completion = f.m.Kernel().Now()
		if s, ok := result.(*regions.Summary); ok {
			f.out.Final = s
		}
	}
}
func (f *emulFx) Compute(units int64) { f.m.Compute(f.coord, units) }
func (f *emulFx) Sense(units int64)   { f.m.Sense(f.coord, units) }

// RunLabeling executes one synthesized labeling round entirely over the
// physical network and returns the result. The map's grid must match the
// hierarchy's.
func (m *Machine) RunLabeling(fmap *field.BinaryMap) (*Result, error) {
	if fmap.Grid != m.hier.Grid {
		return nil, fmt.Errorf("emul: map grid and hierarchy grid differ")
	}
	res, _, err := RunProgram(m, synth.LabelingProgram(m.hier, fmap))
	if err != nil {
		return nil, err
	}
	if res.Final == nil {
		return nil, fmt.Errorf("emul: round did not complete")
	}
	return res, nil
}

// RunProgram executes one round of a synthesized program on the physical
// network and returns the result plus every virtual node's instance
// (grid-index order), whose states serve programs that publish state
// instead of exfiltrating.
func RunProgram[S any](m *Machine, spec *program.Spec[S]) (*Result, []program.Instance[S], error) {
	res := &Result{}
	g := m.hier.Grid
	fxs := make([]emulFx, g.N())
	insts := program.New(spec, g.N(), func(i int) program.Effector {
		fxs[i] = emulFx{m: m, coord: g.CoordOf(i), out: res}
		return &fxs[i]
	})
	if m.tracer != nil {
		program.SetFireHook(insts, func(node int, rule string) {
			m.tracer.EmitCell(m.Kernel().Now(), trace.RuleFire, g.CoordOf(node), -1, trace.NoCell, 0, 0, rule)
		})
	}
	m.SetReceiver(func(to int, msg varch.Message) { insts[to].OnMessage(msg.Payload) })
	m.vphase("emul-round:start")
	for i := range insts {
		insts[i].RunToQuiescence()
	}
	m.Kernel().Run()
	m.vphase("emul-round:end")
	res.RuleFirings, _ = program.Fired(insts)
	res.PhysHops = m.physHops
	return res, insts, nil
}
