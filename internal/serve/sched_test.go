package serve

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestSchedPanicClosesTicket pins the scheduler's panic path: a run that
// panics still closes its ticket, reports the panic through Err, is
// counted in the stats, and frees its worker for the next mission.
func TestSchedPanicClosesTicket(t *testing.T) {
	s := NewScheduler(SchedConfig{Workers: 1})
	bad, err := s.Submit("t", func() { panic("boom") })
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	good, err := s.Submit("t", func() { ran = true })
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range []*Ticket{bad, good} {
		select {
		case <-tk.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("ticket never closed")
		}
	}
	if err := bad.Err(); !errors.Is(err, ErrMissionPanic) || !strings.Contains(err.Error(), "boom") {
		t.Errorf("panicking ticket Err = %v, want ErrMissionPanic naming boom", err)
	}
	if err := good.Err(); err != nil || !ran {
		t.Errorf("mission after the panic: ran %v, Err %v", ran, err)
	}
	st := s.Stats()
	if st.Panicked != 1 || st.InFlight != 0 || st.Tenants["t"].Completed != 2 {
		t.Errorf("stats = panicked %d, in-flight %d, completed %d; want 1, 0, 2",
			st.Panicked, st.InFlight, st.Tenants["t"].Completed)
	}
}
