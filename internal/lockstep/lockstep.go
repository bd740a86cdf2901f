// Package lockstep runs the synthesized labeling program in synchronous
// rounds — the TDMA-style regime the paper's network model explicitly
// allows ("Depending on the type of network, the model could support
// synchronous algorithms (e.g., TDMA), purely asynchronous message-passing
// paradigms, or a combination", Section 2).
//
// Synchrony is a latency model, not a second machine: Run executes the
// program on the discrete-event virtual machine (varch, driven by synth)
// under the step profile of the caller's cost model (cost.Model.Steps),
// where every hop takes one time unit whatever the message size. The
// completion time is then the round count, the paper's "step" measure
// (Section 4.1: "A step denotes a round of computation and is used for
// convenience of analysis"), free of the message-size effects that show up
// in timed latency — which is precisely why the O(√N)-step claim is
// cleanest to verify here.
//
// The step profile keeps the model's energy weights, so a lock-step run
// charges every node exactly what the DES machine does (asserted in tests).
package lockstep

import (
	"fmt"

	"wsnva/internal/cost"
	"wsnva/internal/field"
	"wsnva/internal/regions"
	"wsnva/internal/sim"
	"wsnva/internal/synth"
	"wsnva/internal/varch"
)

// Result is the outcome of a lock-step round sequence.
type Result struct {
	Final       *regions.Summary
	Rounds      int   // rounds elapsed until exfiltration
	Messages    int64 // messages injected
	HopsMoved   int64 // total hop movements
	RuleFirings int64
}

// Engine runs synthesized labeling programs in lock-step rounds.
type Engine struct {
	hier   *varch.Hierarchy
	ledger *cost.Ledger
}

// New returns an engine over h charging ledger (one entry per grid cell).
func New(h *varch.Hierarchy, ledger *cost.Ledger) *Engine {
	if ledger.N() != h.Grid.N() {
		panic(fmt.Sprintf("lockstep: ledger tracks %d nodes, grid has %d", ledger.N(), h.Grid.N()))
	}
	return &Engine{hier: h, ledger: ledger}
}

// Run executes one labeling round sequence over m and returns the result.
// The round's charges accrue on a step-profile ledger and are folded into
// the engine's ledger when the round ends, so a meter or tracer attached to
// that ledger sees the folded totals, not each charge.
func (e *Engine) Run(m *field.BinaryMap) (*Result, error) {
	steps := cost.NewLedger(e.ledger.Model().Steps(), e.ledger.N())
	vm := varch.NewMachine(e.hier, sim.New(), steps)
	res, err := synth.RunOnMachine(vm, m)
	e.ledger.Add(steps)
	if err != nil {
		return nil, fmt.Errorf("lockstep: %w", err)
	}
	msgs, hops := vm.Stats()
	return &Result{Final: res.Final, Rounds: int(res.Completion),
		Messages: msgs, HopsMoved: hops, RuleFirings: res.RuleFirings}, nil
}
