package cost

import (
	"testing"
	"testing/quick"
)

func TestUniformModel(t *testing.T) {
	m := NewUniform()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.EnergyOf(Tx, 5) != 5 || m.EnergyOf(Rx, 5) != 5 || m.EnergyOf(Compute, 5) != 5 {
		t.Error("uniform model should charge 1 energy per unit for tx/rx/compute")
	}
	if m.EnergyOf(Idle, 100) != 0 {
		t.Error("idle should be free in the uniform model")
	}
	if m.TxLatency(7) != 7 || m.ComputeLatency(7) != 7 {
		t.Error("p=b=1: latency should equal unit count")
	}
}

func TestCustomModelLatencyCeil(t *testing.T) {
	m := &Model{ProcSpeed: 4, Bandwidth: 3}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		units   int64
		txWant  Latency
		cpuWant Latency
	}{
		{0, 0, 0},
		{1, 1, 1},
		{3, 1, 1},
		{4, 2, 1},
		{5, 2, 2},
		{12, 4, 3},
		{13, 5, 4},
	}
	for _, c := range cases {
		if got := m.TxLatency(c.units); got != c.txWant {
			t.Errorf("TxLatency(%d) = %d, want %d", c.units, got, c.txWant)
		}
		if got := m.ComputeLatency(c.units); got != c.cpuWant {
			t.Errorf("ComputeLatency(%d) = %d, want %d", c.units, got, c.cpuWant)
		}
	}
}

func TestStepsProfile(t *testing.T) {
	src := &Model{ProcSpeed: 4, Bandwidth: 3}
	src.EnergyPerUnit = [numOps]Energy{2, 3, 5, 7, 1}
	orig := *src
	s := src.Steps()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.TxLatency(1) != 1 || s.TxLatency(1<<50) != 1 || s.ComputeLatency(1) != 1 {
		t.Errorf("one to 2^50 units must take one step: tx(1)=%d tx(2^50)=%d compute(1)=%d",
			s.TxLatency(1), s.TxLatency(1<<50), s.ComputeLatency(1))
	}
	if s.TxLatency(0) != 0 || s.ComputeLatency(0) != 0 {
		t.Error("zero units must take zero time")
	}
	if s.EnergyPerUnit != src.EnergyPerUnit {
		t.Errorf("energy weights %v, want the source's %v", s.EnergyPerUnit, src.EnergyPerUnit)
	}
	if *src != orig {
		t.Errorf("Steps modified its source: %+v, was %+v", *src, orig)
	}
}

func TestModelValidateErrors(t *testing.T) {
	bad := []*Model{
		{ProcSpeed: 0, Bandwidth: 1},
		{ProcSpeed: 1, Bandwidth: 0},
		{ProcSpeed: -1, Bandwidth: 1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	neg := NewUniform()
	neg.EnergyPerUnit[Tx] = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative energy weight should fail validation")
	}
}

func TestNegativeUnitsPanic(t *testing.T) {
	m := NewUniform()
	for name, f := range map[string]func(){
		"EnergyOf":       func() { m.EnergyOf(Tx, -1) },
		"TxLatency":      func() { m.TxLatency(-1) },
		"ComputeLatency": func() { m.ComputeLatency(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with negative units should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestLedgerChargeAndTransfer(t *testing.T) {
	l := NewLedger(NewUniform(), 4)
	l.Charge(0, Compute, 3)
	l.ChargeTransfer(0, 1, 5)
	if l.Energy(0) != 8 { // 3 compute + 5 tx
		t.Errorf("node 0 energy = %d, want 8", l.Energy(0))
	}
	if l.Energy(1) != 5 { // 5 rx
		t.Errorf("node 1 energy = %d, want 5", l.Energy(1))
	}
	if l.Energy(2) != 0 || l.Energy(3) != 0 {
		t.Error("untouched nodes should have zero energy")
	}
	if l.Units(Tx) != 5 || l.Units(Rx) != 5 || l.Units(Compute) != 3 {
		t.Error("per-op unit counters wrong")
	}
}

// Conservation: in the uniform model, a transfer charges exactly 2 energy
// units per data unit — one at each endpoint. The test suite relies on this
// identity when checking whole-protocol energy accounting.
func TestTransferConservation(t *testing.T) {
	f := func(units uint16) bool {
		l := NewLedger(NewUniform(), 2)
		e := l.ChargeTransfer(0, 1, int64(units))
		return e == Energy(2*int64(units)) && l.Energy(0) == l.Energy(1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLedgerMetrics(t *testing.T) {
	l := NewLedger(NewUniform(), 4)
	l.Charge(0, Compute, 10)
	l.Charge(1, Compute, 20)
	l.Charge(2, Compute, 30)
	l.Charge(3, Compute, 40)
	m := l.Metrics()
	if m.Total != 100 {
		t.Errorf("Total = %d, want 100", m.Total)
	}
	if m.Max != 40 || m.Min != 10 {
		t.Errorf("Max/Min = %d/%d, want 40/10", m.Max, m.Min)
	}
	if m.Mean != 25 {
		t.Errorf("Mean = %v, want 25", m.Mean)
	}
	if m.Balance != 40.0/25.0 {
		t.Errorf("Balance = %v, want 1.6", m.Balance)
	}
}

func TestMetricsInvariants(t *testing.T) {
	f := func(charges []uint8) bool {
		if len(charges) == 0 {
			return true
		}
		l := NewLedger(NewUniform(), len(charges))
		var total Energy
		for i, c := range charges {
			l.Charge(i, Compute, int64(c))
			total += Energy(c)
		}
		m := l.Metrics()
		if m.Total != total {
			return false
		}
		if m.Min > m.Max || m.P95 > m.Max || m.P95 < m.Min {
			return false
		}
		if float64(m.Min) > m.Mean || m.Mean > float64(m.Max) {
			return false
		}
		return m.Total == 0 || m.Balance >= 1.0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLedgerResetAndAdd(t *testing.T) {
	a := NewLedger(NewUniform(), 3)
	b := NewLedger(NewUniform(), 3)
	a.Charge(0, Tx, 5)
	b.Charge(0, Tx, 2)
	b.Charge(2, Rx, 7)
	a.Add(b)
	if a.Energy(0) != 7 || a.Energy(2) != 7 {
		t.Errorf("after Add: %d, %d", a.Energy(0), a.Energy(2))
	}
	if a.Units(Tx) != 7 {
		t.Errorf("Units(Tx) = %d, want 7", a.Units(Tx))
	}
	a.Reset()
	if a.Energy(0) != 0 || a.Units(Tx) != 0 {
		t.Error("Reset should zero everything")
	}
	defer func() {
		if recover() == nil {
			t.Error("Add with size mismatch should panic")
		}
	}()
	a.Add(NewLedger(NewUniform(), 2))
}

func TestLifetime(t *testing.T) {
	l := NewLedger(NewUniform(), 3)
	if l.Lifetime(1000) != -1 {
		t.Error("empty ledger lifetime should be unbounded (-1)")
	}
	l.Charge(0, Tx, 10)
	l.Charge(1, Tx, 25)
	if got := l.Lifetime(100); got != 4 { // 100/25 = 4 rounds
		t.Errorf("Lifetime = %d, want 4", got)
	}
	if got := l.Lifetime(24); got != 0 {
		t.Errorf("Lifetime with tiny budget = %d, want 0", got)
	}
}

func TestOpString(t *testing.T) {
	if Tx.String() != "tx" || Compute.String() != "compute" || Sense.String() != "sense" {
		t.Error("Op strings wrong")
	}
}

func TestNewLedgerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLedger(0) should panic")
		}
	}()
	NewLedger(NewUniform(), 0)
}
