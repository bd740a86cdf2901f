package synth

import (
	"wsnva/internal/geom"
	"wsnva/internal/program"
	"wsnva/internal/varch"
)

// The third synthesized application: target tracking, the example
// application paper Figure 1 itself annotates the methodology with.
// Nodes that detect the target (signal strength above threshold) send
// weighted reports up the group hierarchy; every leader accumulates the
// weighted-centroid moments (Σw·x, Σw·y, Σw) for its block, and the root's
// moments yield the network's position estimate. Like the alarm program it
// is event-driven: nodes out of detection range cost nothing beyond the
// sample.

// TrackReport is the tracking message: centroid moments for the reporting
// subtree, in milli-units to stay integral, plus the merge level.
type TrackReport struct {
	WX, WY, W int64 // Σ w·x, Σ w·y, Σ w (w in milli-units)
	Level     int
}

// trackMsgSize is the cost-model size of one report: three moments.
const trackMsgSize = 3

// TrackState is one node's variables in the tracking program.
type TrackState struct {
	Coord geom.Coord
	Start bool
	// WX, WY and W are the per-level centroid moments Σw·x, Σw·y, Σw; the
	// root's top slot covers the whole grid.
	WX, WY, W []int64
	// Outbox holds the reports awaiting transmission.
	Outbox []TrackReport
}

// TrackingProgram synthesizes the tracking program every node of h's grid
// runs: the start rule reads the node's detection strength in [0,1], and
// zero means no detection and no traffic.
func TrackingProgram(h *varch.Hierarchy, strength func(c geom.Coord) float64) *program.Spec[TrackState] {
	maxLevel := h.Levels
	merge := func(s *TrackState, r TrackReport) {
		s.WX[r.Level] += r.WX
		s.WY[r.Level] += r.WY
		s.W[r.Level] += r.W
		if r.Level < maxLevel {
			up := r
			up.Level = r.Level + 1
			s.Outbox = append(s.Outbox, up)
		}
	}

	return &program.Spec[TrackState]{
		Title: "track",
		Init: func(states []TrackState) {
			wx := make([]int64, len(states)*(maxLevel+1))
			wy := make([]int64, len(wx))
			w := make([]int64, len(wx))
			for i := range states {
				states[i] = TrackState{Coord: h.Grid.CoordOf(i), Start: true,
					WX: levelSlots(wx, i, maxLevel), WY: levelSlots(wy, i, maxLevel), W: levelSlots(w, i, maxLevel)}
			}
		},
		Rules: []program.Rule[TrackState]{
			{
				Name:      "start",
				Condition: "start = true",
				Effect:    "sense; if detecting: emit report {w·x, w·y, w}",
				Guard:     func(s *TrackState, _ *program.Env) bool { return s.Start },
				Action: func(s *TrackState, _ *program.Env, fx program.Effector) {
					s.Start = false
					fx.Sense(1)
					str := strength(s.Coord)
					if str <= 0 {
						return
					}
					fx.Compute(1)
					w := int64(str * 1000)
					if w == 0 {
						w = 1
					}
					merge(s, TrackReport{
						WX: w * int64(s.Coord.Col), WY: w * int64(s.Coord.Row), W: w, Level: 0,
					})
				},
			},
			{
				Name:      "receive",
				Condition: "received mTrack = {wx, wy, w, mrecLevel}",
				Effect:    "moments[mrecLevel] += report\nqueue report for Leader(mrecLevel+1)",
				Guard: func(_ *TrackState, e *program.Env) bool {
					_, ok := e.PeekMsg().(TrackReport)
					return ok
				},
				Action: func(s *TrackState, e *program.Env, fx program.Effector) {
					r := e.TakeMsg().(TrackReport)
					fx.Compute(trackMsgSize)
					merge(s, r)
				},
			},
			{
				Name:      "forward",
				Condition: "outbox not empty",
				Effect:    "pop report; local merge if I lead its level, else send",
				Guard:     func(s *TrackState, _ *program.Env) bool { return len(s.Outbox) > 0 },
				Action: func(s *TrackState, _ *program.Env, fx program.Effector) {
					r := s.Outbox[0]
					s.Outbox = s.Outbox[1:]
					if h.LeaderAt(s.Coord, r.Level) == s.Coord {
						merge(s, r)
						return
					}
					fx.Send(r.Level, trackMsgSize, r)
				},
			},
		},
	}
}

// TrackEstimate is one epoch's position estimate in grid-cell coordinates.
type TrackEstimate struct {
	Valid     bool    // false when nothing detected the target
	Col, Row  float64 // weighted centroid in cell units
	Weight    float64 // total detection mass
	Detectors int     // nodes that reported
	RuleCount int64
}

// RunTrackingEpoch runs one tracking round on the machine: every node
// samples once, reports flow up, and the root's accumulated moments give
// the estimate.
func RunTrackingEpoch(vm *varch.Machine, strength func(c geom.Coord) float64) (*TrackEstimate, error) {
	h := vm.Hier
	g := h.Grid
	// One sample per node, taken up front so the detector count and the
	// programs see the same readings.
	samples := make([]float64, g.N())
	detectors := 0
	for i := range samples {
		samples[i] = strength(g.CoordOf(i))
		if samples[i] > 0 {
			detectors++
		}
	}
	// Tracking exfiltrates nothing: the root's moments are read after
	// quiescence.
	insts := onMachine(vm, TrackingProgram(h, func(c geom.Coord) float64 { return samples[g.Index(c)] }), nil)
	startAll(insts)
	vm.Kernel().Run()

	est := &TrackEstimate{Detectors: detectors}
	est.RuleCount, _ = program.Fired(insts)
	root := insts[g.Index(h.Root())].State
	wx, wy, w := root.WX[h.Levels], root.WY[h.Levels], root.W[h.Levels]
	if w > 0 {
		est.Valid = true
		est.Col = float64(wx) / float64(w)
		est.Row = float64(wy) / float64(w)
		est.Weight = float64(w) / 1000
	}
	return est, nil
}
