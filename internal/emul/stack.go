package emul

import (
	"fmt"
	"math/rand"

	"wsnva/internal/binding"
	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/geom"
	"wsnva/internal/radio"
	"wsnva/internal/sim"
	"wsnva/internal/trace"
	"wsnva/internal/varch"
	"wsnva/internal/vtopo"
	"wsnva/internal/vtree"
)

// Config sets the stack's radio: the per-delivery loss probability, and
// the seed of the loss stream, read only when Loss is nonzero.
type Config struct {
	Loss float64
	Seed int64
}

// Stack is the Section 5 runtime system over one deployment: it owns a
// uniform-cost ledger, a kernel and the one radio medium every protocol
// phase drives, and exposes the paper's phases in order — Emulate, then
// Bind (or Rotator), then Machine. Emulate and Bind each run on their
// own, so an experiment that studies one phase runs only that phase;
// Machine needs both.
type Stack struct {
	grid  *geom.Grid
	med   *radio.Medium
	proto *vtopo.Protocol
	bnd   *binding.Binding
}

// NewStack builds the ledger, kernel and medium over nw for grid. It
// transmits nothing.
func NewStack(nw *deploy.Network, grid *geom.Grid, cfg Config) *Stack {
	var rng *rand.Rand
	if cfg.Loss != 0 {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}
	led := cost.NewLedger(cost.NewUniform(), nw.N())
	return &Stack{grid: grid, med: radio.NewMedium(nw, sim.New(), led, rng, radio.Config{Loss: cfg.Loss})}
}

// Emulate runs the Section 5.1 topology emulation to quiescence and
// returns the protocol, which Machine routes over, with its metrics.
func (s *Stack) Emulate() (*vtopo.Protocol, vtopo.Metrics) {
	s.proto = vtopo.New(s.med, s.grid)
	return s.proto, s.proto.Run()
}

// Bind runs the Section 5.2 closest-to-center election and returns the
// binding, the election result and Result.Verify's error. A verified
// binding becomes the one Machine executes on.
func (s *Stack) Bind() (*binding.Binding, *binding.Result, error) {
	bnd, res, err := binding.Bind(s.med, s.grid, binding.MinDistance{Network: s.med.Network(), Grid: s.grid})
	if err == nil {
		s.bnd = bnd
	}
	return bnd, res, err
}

// Rotator runs the same initial election as Bind inside a rotation
// service on the stack's ledger, whose initial binding Machine executes
// on. RotateResidual re-elects inside that binding, so it moves a
// machine's executors; Rotate elects a new binding, which the stack does
// not pick up.
func (s *Stack) Rotator() (*binding.Rotator, error) {
	rot, err := binding.NewRotator(s.med, s.grid)
	if err == nil {
		s.bnd = rot.Current()
	}
	return rot, err
}

// Machine assembles the physical machine from the emulated topology and
// the latest binding, on the grid's full hierarchy.
func (s *Stack) Machine() (*Machine, error) {
	if s.proto == nil || s.bnd == nil {
		return nil, fmt.Errorf("emul: Machine needs Emulate and a successful Bind or Rotator first")
	}
	return New(varch.MustHierarchy(s.grid), s.proto, s.bnd, s.med)
}

// Tree prepares the spanning-tree virtual topology (vtree) on the same
// medium, for deployments the grid cannot be emulated on.
func (s *Stack) Tree() *vtree.Protocol { return vtree.New(s.med) }

// Ledger returns the ledger every phase charges.
func (s *Stack) Ledger() *cost.Ledger { return s.med.Ledger() }

// Kernel returns the kernel every phase runs on.
func (s *Stack) Kernel() *sim.Kernel { return s.med.Kernel() }

// SetTracer attaches t (nil detaches) to the medium, and to the ledger
// on the kernel's clock. A machine's virtual plane attaches separately
// (Machine.SetTracer).
func (s *Stack) SetTracer(t *trace.Tracer) {
	s.med.SetTracer(t)
	s.med.Ledger().SetTracer(t, s.med.Kernel().Now)
}
