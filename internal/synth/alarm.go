package synth

import (
	"fmt"

	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/program"
	"wsnva/internal/regions"
	"wsnva/internal/sim"
	"wsnva/internal/varch"
)

// The second synthesized application: event-driven alarm aggregation
// (wildfire detection, one of the motivating applications in the paper's
// introduction). Section 4.1 notes the periodic task-graph model "might
// not be suitable for event-driven applications ... where only the sensor
// nodes in the vicinity of the target perform the sampling"; this program
// is that other regime on the same virtual architecture: silent nodes cost
// nothing, and every alarm travels up the group hierarchy as a delta that
// each level's leader folds into its local picture before forwarding.
// The root raises the alarm when the count crosses a quorum.

// AlarmMsg is the alarm delta: how many newly alarmed cells it reports,
// their bounding box, and the level it merges at next.
type AlarmMsg struct {
	Count int
	Box   regions.BBox
	Level int
}

// alarmMsgSize is the cost-model size of one alarm delta: count + box.
const alarmMsgSize = 3

// EvacMsg is the evacuation order the root disseminates once the quorum
// fires; every node's program acknowledges it by entering the evacuating
// state.
type EvacMsg struct{}

// AlarmState is one node's variables in the alarm program.
type AlarmState struct {
	Coord geom.Coord
	Start bool
	// Total counts alarmed cells per level and Box bounds them; the root's
	// top slot is the global picture.
	Total []int64
	Box   []regions.BBox
	// Raised is set once the root reaches the quorum; Evacuating once the
	// node receives the evacuation order.
	Raised     bool
	Evacuating bool
	// Outbox holds the deltas awaiting transmission.
	Outbox []AlarmMsg
}

// AlarmProgram synthesizes the event-driven alarm program every node of
// h's grid runs: the start rule samples the node's cell of hot, and the
// root raises the alarm once quorum cells have reported.
func AlarmProgram(h *varch.Hierarchy, hot *field.BinaryMap, quorum int) *program.Spec[AlarmState] {
	maxLevel := h.Levels
	if quorum < 1 {
		panic(fmt.Sprintf("synth: quorum %d must be positive", quorum))
	}

	// mergeDelta folds a delta into the node's level record and queues the
	// upward forward (or raises the alarm at the root).
	mergeDelta := func(s *AlarmState, msg AlarmMsg) {
		if s.Total[msg.Level] == 0 {
			s.Box[msg.Level] = msg.Box
		} else {
			s.Box[msg.Level] = s.Box[msg.Level].Union(msg.Box)
		}
		s.Total[msg.Level] += int64(msg.Count)
		if msg.Level < maxLevel {
			s.Outbox = append(s.Outbox, AlarmMsg{Count: msg.Count, Box: msg.Box, Level: msg.Level + 1})
		}
	}

	return &program.Spec[AlarmState]{
		Title: "alarm",
		Init: func(states []AlarmState) {
			totals := make([]int64, len(states)*(maxLevel+1))
			boxes := make([]regions.BBox, len(totals))
			for i := range states {
				states[i] = AlarmState{Coord: h.Grid.CoordOf(i), Start: true,
					Total: levelSlots(totals, i, maxLevel), Box: levelSlots(boxes, i, maxLevel)}
			}
		},
		Rules: []program.Rule[AlarmState]{
			{
				Name:      "start",
				Condition: "start = true",
				Effect:    "start = false\nsense\nif hot: emit delta {1, myCell} toward Leader(1)",
				Guard:     func(s *AlarmState, _ *program.Env) bool { return s.Start },
				Action: func(s *AlarmState, _ *program.Env, fx program.Effector) {
					s.Start = false
					fx.Sense(1)
					if !hot.At(s.Coord) {
						return
					}
					fx.Compute(1)
					me := s.Coord
					box := regions.BBox{MinCol: me.Col, MinRow: me.Row, MaxCol: me.Col, MaxRow: me.Row}
					mergeDelta(s, AlarmMsg{Count: 1, Box: box, Level: 0})
				},
			},
			{
				Name:      "receive",
				Condition: "received mAlarm = {count, box, mrecLevel}",
				Effect:    "alarmTotal[mrecLevel] += count; alarmBox[mrecLevel] ∪= box\nqueue delta for Leader(mrecLevel+1)",
				Guard: func(_ *AlarmState, e *program.Env) bool {
					_, ok := e.PeekMsg().(AlarmMsg)
					return ok
				},
				Action: func(s *AlarmState, e *program.Env, fx program.Effector) {
					msg := e.TakeMsg().(AlarmMsg)
					fx.Compute(alarmMsgSize)
					mergeDelta(s, msg)
				},
			},
			{
				Name:      "evacuate",
				Condition: "received mEvacuate",
				Effect:    "evacuating = true",
				Guard: func(_ *AlarmState, e *program.Env) bool {
					_, ok := e.PeekMsg().(EvacMsg)
					return ok
				},
				Action: func(s *AlarmState, e *program.Env, fx program.Effector) {
					e.TakeMsg()
					s.Evacuating = true
				},
			},
			{
				Name:      "forward",
				Condition: "outbox not empty",
				Effect: "pop delta; if myCoords = Leader(level) merge locally\n" +
					"else send delta to Leader(level)",
				Guard: func(s *AlarmState, _ *program.Env) bool { return len(s.Outbox) > 0 },
				Action: func(s *AlarmState, _ *program.Env, fx program.Effector) {
					msg := s.Outbox[0]
					s.Outbox = s.Outbox[1:]
					if h.LeaderAt(s.Coord, msg.Level) == s.Coord {
						// This node leads the next level too: fold locally.
						mergeDelta(s, msg)
						return
					}
					fx.Send(msg.Level, alarmMsgSize, msg)
				},
			},
			{
				Name:      "quorum",
				Condition: "alarmTotal[maxrecLevel] >= quorum and not alarmRaised",
				Effect:    "alarmRaised = true\nexfiltrate {total, box}",
				Guard: func(s *AlarmState, _ *program.Env) bool {
					return !s.Raised && s.Total[maxLevel] >= int64(quorum)
				},
				Action: func(s *AlarmState, _ *program.Env, fx program.Effector) {
					s.Raised = true
					fx.Exfiltrate(AlarmMsg{Count: int(s.Total[maxLevel]), Box: s.Box[maxLevel], Level: maxLevel})
				},
			},
		},
	}
}

// AlarmResult is the outcome of one alarm round.
type AlarmResult struct {
	Raised      bool
	AtCount     int          // alarm count when the quorum fired
	FinalCount  int          // total alarmed cells seen by the root at quiescence
	Box         regions.BBox // bounding box of alarms at quorum time
	RaisedAt    sim.Time
	RuleFirings int64

	insts []program.Instance[AlarmState]
}

// EvacuatingCount returns how many nodes have received the evacuation
// order. The instances stay wired to the machine after the round, so a
// caller can GroupBroadcast an EvacMsg, drain the kernel, and count here.
func (r *AlarmResult) EvacuatingCount() int {
	n := 0
	for i := range r.insts {
		if r.insts[i].State.Evacuating {
			n++
		}
	}
	return n
}

// RunAlarmOnMachine executes one alarm round: every node samples hot once
// at t=0, alarm deltas race up the hierarchy, and the root raises the
// alarm if the quorum is met. The hot map marks alarmed cells.
func RunAlarmOnMachine(vm *varch.Machine, hot *field.BinaryMap, quorum int) (*AlarmResult, error) {
	h := vm.Hier
	if hot.Grid != vm.Grid() {
		return nil, fmt.Errorf("synth: hot map grid and machine grid differ")
	}
	res := &AlarmResult{}
	insts := onMachine(vm, AlarmProgram(h, hot, quorum), func(_ geom.Coord, result any) {
		msg := result.(AlarmMsg)
		res.Raised = true
		res.AtCount = msg.Count
		res.Box = msg.Box
		res.RaisedAt = vm.Kernel().Now()
	})
	startAll(insts)
	vm.Kernel().Run()
	res.RuleFirings, _ = program.Fired(insts)
	res.FinalCount = int(insts[h.Grid.Index(h.Root())].State.Total[h.Levels])
	res.insts = insts
	return res, nil
}
