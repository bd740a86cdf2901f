// Package synth is the program-synthesis stage of the methodology
// (Section 4.3): it converts the mapped quad-tree algorithm into the
// reactive guarded-command program of paper Figure 4 — one rule set every
// virtual node runs over its own typed state — and provides the drivers
// that execute a synthesized program on the virtual architecture.
//
// The generated rule set follows Figure 4 clause for clause, with the
// indexing made self-consistent (the paper's figure increments recLevel in
// two places whose interleaving it leaves ambiguous): here a node's
// recLevel names the highest level of mySubGraph it has completed, a
// message carries the level its contents must be merged at
// (mrecLevel = sender's recLevel + 1), and leaders contribute their own
// quadrant by a local merge rather than a self-message, so every leader
// waits for exactly the 3 external messages the paper predicts.
package synth

import (
	"fmt"

	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/program"
	"wsnva/internal/regions"
	"wsnva/internal/sim"
	"wsnva/internal/trace"
	"wsnva/internal/varch"
)

// GraphMsg is the message alphabet of Figure 4: the sender's coordinates,
// its boundary sub-graph, and the recursion level the data merges at.
type GraphMsg struct {
	Sender geom.Coord
	Sub    *regions.Summary
	Level  int
}

// LabelState is one node's variables in the labeling program of Figure 4.
type LabelState struct {
	Coord    geom.Coord // myCoords
	Start    bool
	Transmit bool
	Done     bool
	// RecLevel is the highest level of mySubGraph the node has completed.
	RecLevel int
	// SubGraph is mySubGraph and MsgsRecv is msgsReceived, one slot per
	// level 0..maxrecLevel.
	SubGraph []*regions.Summary
	MsgsRecv []int64
	// leaf is the storage the start rule builds mySubGraph[0] in, so a
	// run's leaves live in the states slice program.New allocates once.
	// The leaf's slices point into the state, so a state must not be
	// copied by value once its start rule has run, and a merge at the
	// parent may write into a sender's leaf after the sender halted.
	leaf regions.Summary
}

func (s *LabelState) mergeAt(level int, sub *regions.Summary) {
	if s.SubGraph[level] == nil {
		s.SubGraph[level] = sub
	} else {
		s.SubGraph[level].Merge(sub)
	}
}

// levelSlots returns node i's per-level array, levels+1 slots carved out
// of all, the backing array every node's shares.
func levelSlots[T any](all []T, i, levels int) []T {
	lo, hi := i*(levels+1), (i+1)*(levels+1)
	return all[lo:hi:hi]
}

// LabelingProgram synthesizes the homogeneous-region labeling program every
// node of h's grid runs; the start rule senses the node's cell of m. The
// rule set reads and writes only the node's state, its inbox, and the
// Effector.
func LabelingProgram(h *varch.Hierarchy, m *field.BinaryMap) *program.Spec[LabelState] {
	maxLevel := h.Levels
	return &program.Spec[LabelState]{
		Title: "label-regions",
		Init: func(states []LabelState) {
			subs := make([]*regions.Summary, len(states)*(maxLevel+1))
			recv := make([]int64, len(subs))
			for i := range states {
				states[i] = LabelState{Coord: h.Grid.CoordOf(i), Start: true,
					SubGraph: levelSlots(subs, i, maxLevel), MsgsRecv: levelSlots(recv, i, maxLevel)}
			}
		},
		Rules: []program.Rule[LabelState]{
			{
				Name:      "start",
				Condition: "start = true",
				Effect: "start = false\ncompute mySubGraph[0] from intra-cell readings\n" +
					"transmit = true",
				Guard: func(s *LabelState, _ *program.Env) bool { return s.Start },
				Action: func(s *LabelState, _ *program.Env, fx program.Effector) {
					s.Start = false
					fx.Sense(1)
					sub := regions.LeafInto(&s.leaf, m, s.Coord)
					fx.Compute(1)
					s.mergeAt(0, sub)
					s.Transmit = true
				},
			},
			{
				Name:      "receive",
				Condition: "received mGraph = {senderCoord, msubGraph, mrecLevel}",
				Effect:    "merge(msubGraph, mySubGraph[mrecLevel])\nmsgsReceived[mrecLevel]++",
				Guard:     func(_ *LabelState, e *program.Env) bool { return e.PeekMsg() != nil },
				Action: func(s *LabelState, e *program.Env, fx program.Effector) {
					msg := e.TakeMsg().(GraphMsg)
					fx.Compute(msg.Sub.Size())
					s.mergeAt(msg.Level, msg.Sub)
					s.MsgsRecv[msg.Level]++
				},
			},
			{
				Name:      "transmit",
				Condition: "transmit = true",
				Effect: "message = {myCoords, mySubGraph[recLevel], recLevel+1}\n" +
					"if (recLevel = maxrecLevel)\n  exfiltrate message\n" +
					"else if (myCoords = Leader(recLevel+1))\n" +
					"  merge(mySubGraph[recLevel], mySubGraph[recLevel+1]); recLevel++\n" +
					"else\n  send message to Leader(recLevel+1); halt\ntransmit = false",
				Guard: func(s *LabelState, _ *program.Env) bool { return s.Transmit },
				Action: func(s *LabelState, _ *program.Env, fx program.Effector) {
					s.Transmit = false
					level := s.RecLevel
					switch {
					case level == maxLevel:
						s.Done = true
						fx.Exfiltrate(s.SubGraph[level])
					case h.LeaderAt(s.Coord, level+1) == s.Coord:
						// The self-message of Figure 2's mapping: the parent is
						// co-located with its NW child, so the contribution is a
						// local merge, not a transmission.
						sub := s.SubGraph[level]
						s.SubGraph[level] = nil
						s.mergeAt(level+1, sub)
						s.RecLevel = level + 1
					default:
						sub := s.SubGraph[level]
						s.SubGraph[level] = nil
						fx.Send(level+1, sub.Size(), GraphMsg{Sender: s.Coord, Sub: sub, Level: level + 1})
						s.Done = true
					}
				},
			},
			{
				Name:      "promote",
				Condition: "msgsReceived[recLevel] = 3 and not done",
				Effect:    "transmit = true",
				Guard: func(s *LabelState, _ *program.Env) bool {
					if s.Done || s.Transmit {
						return false
					}
					level := s.RecLevel
					if level == 0 || level > maxLevel {
						return false
					}
					return s.MsgsRecv[level] == 3
				},
				Action: func(s *LabelState, _ *program.Env, fx program.Effector) {
					// Consume the count so the guard cannot refire at this level.
					s.MsgsRecv[s.RecLevel] = -1
					s.Transmit = true
				},
			},
		},
	}
}

// Result is the outcome of one execution round of the synthesized
// application on the virtual architecture.
type Result struct {
	Final       *regions.Summary // the exfiltrated root summary
	Completion  sim.Time         // kernel time when exfiltration happened
	RuleFirings int64            // total guarded-command firings
	// RuleCoverage sums per-rule firings across all nodes, indexed like the
	// synthesized Spec's rule list (start, receive, transmit, promote).
	RuleCoverage []int64
	ExfilCoord   geom.Coord // node that exfiltrated (must be the root)
}

// machineFx is one node's program.Effector on a varch machine; exfil,
// shared by the run, receives what the node exfiltrates.
type machineFx struct {
	vm    *varch.Machine
	coord geom.Coord
	exfil func(c geom.Coord, result any)
}

func (f *machineFx) Send(level int, size int64, payload any) {
	f.vm.SendToLeader(f.coord, level, size, payload)
}

func (f *machineFx) Exfiltrate(result any) {
	if f.exfil != nil {
		f.exfil(f.coord, result)
	}
}

func (f *machineFx) Compute(units int64) { f.vm.Compute(f.coord, units) }
func (f *machineFx) Sense(units int64)   { f.vm.Sense(f.coord, units) }

// onMachine instantiates spec on every node of vm, with effectors that act
// on vm at the node's cell and pass exfiltrated results to exfil, and hands
// every delivery to the receiving node's instance.
func onMachine[S any](vm *varch.Machine, spec *program.Spec[S], exfil func(c geom.Coord, result any)) []program.Instance[S] {
	g := vm.Grid()
	fxs := make([]machineFx, g.N())
	insts := program.New(spec, g.N(), func(i int) program.Effector {
		fxs[i] = machineFx{vm: vm, coord: g.CoordOf(i), exfil: exfil}
		return &fxs[i]
	})
	vm.SetReceiver(func(to int, msg varch.Message) { insts[to].OnMessage(msg.Payload) })
	return insts
}

// startAll runs every instance to quiescence in node order: the round's t=0
// rule firings, which schedule its message traffic.
func startAll[S any](insts []program.Instance[S]) {
	for i := range insts {
		insts[i].RunToQuiescence()
	}
}

// emitExfiltrate records the out-of-network delivery when tracing is on.
func emitExfiltrate(vm *varch.Machine, c geom.Coord) {
	vm.Tracer().EmitCell(vm.Kernel().Now(), trace.Exfiltrate, c, vm.Grid().Index(c), trace.NoCell, 0, 0, "final summary")
}

// phase emits a driver phase-boundary marker when tracing is on.
func phase(vm *varch.Machine, detail string) {
	vm.Tracer().EmitRun(vm.Kernel().Now(), trace.Phase, 0, detail)
}

// wireTraceHooks makes the instances' rule firings visible in the
// machine's trace.
func wireTraceHooks[S any](vm *varch.Machine, insts []program.Instance[S]) {
	tr := vm.Tracer()
	if tr == nil {
		return
	}
	g := vm.Grid()
	program.SetFireHook(insts, func(node int, rule string) {
		tr.EmitCell(vm.Kernel().Now(), trace.RuleFire, g.CoordOf(node), node, trace.NoCell, 0, 0, rule)
	})
}

// Transport optionally transforms every GraphMsg between transmission and
// delivery — the hook integration tests use to force each message through
// the binary wire codec, proving the serialized form carries the protocol.
type Transport func(GraphMsg) (GraphMsg, error)

// RunOnMachine runs the synthesized labeling program on every node of vm's
// grid: it executes one full round from time 0 and returns the result. It
// is experiment E2's engine and the reference implementation the goroutine
// runtime is checked against.
func RunOnMachine(vm *varch.Machine, m *field.BinaryMap) (*Result, error) {
	return RunOnMachineWithTransport(vm, m, nil)
}

// RunOnMachineWithTransport is RunOnMachine with every delivered message
// passed through transport first (nil means identity).
func RunOnMachineWithTransport(vm *varch.Machine, m *field.BinaryMap, transport Transport) (*Result, error) {
	h := vm.Hier
	if m.Grid != vm.Grid() {
		return nil, fmt.Errorf("synth: map grid and machine grid differ")
	}
	res := &Result{}
	insts := onMachine(vm, LabelingProgram(h, m), func(c geom.Coord, result any) {
		res.Final = result.(*regions.Summary)
		res.Completion = vm.Kernel().Now()
		res.ExfilCoord = c
		emitExfiltrate(vm, c)
	})
	wireTraceHooks(vm, insts)
	var transportErr error
	if transport != nil {
		vm.SetReceiver(func(to int, msg varch.Message) {
			gm, err := transport(msg.Payload.(GraphMsg))
			if err != nil {
				if transportErr == nil {
					transportErr = err
				}
				return
			}
			insts[to].OnMessage(gm)
		})
	}
	phase(vm, "labeling:start")
	startAll(insts)
	vm.Kernel().Run()
	phase(vm, "labeling:end")
	res.RuleFirings, res.RuleCoverage = program.Fired(insts)
	if transportErr != nil {
		return nil, transportErr
	}
	if res.Final == nil {
		return nil, fmt.Errorf("synth: round did not complete (no exfiltration)")
	}
	if res.ExfilCoord != h.Root() {
		return nil, fmt.Errorf("synth: exfiltration at %v, want root %v", res.ExfilCoord, h.Root())
	}
	return res, nil
}
