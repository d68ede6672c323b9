package health

import (
	"testing"
	"time"
)

// solveAt builds an observation of tag T1 at stream time t whose solve has
// the given condition estimate.
func solveAt(t time.Duration, condition float64) SolveObservation {
	return SolveObservation{Tag: "T1", Time: t, Window: 64, Condition: condition}
}

// staticConditionMonitor builds a monitor with one static condition rule.
func staticConditionMonitor(t *testing.T, hold, resolve time.Duration) *Monitor {
	t.Helper()
	m, err := New(Config{
		Rules: []Rule{{
			Name: "condition_static", Signal: SignalCondition,
			Threshold: 1.0, HoldDown: hold, ResolveAfter: resolve, Severity: SevCritical,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func findAlert(alerts []Alert, rule string, state State) *Alert {
	for i := range alerts {
		if alerts[i].Rule == rule && alerts[i].State == state {
			return &alerts[i]
		}
	}
	return nil
}

func TestAlertPendingFiringResolved(t *testing.T) {
	m := staticConditionMonitor(t, 2*time.Second, 3*time.Second)

	// Healthy traffic: no alerts.
	m.ObserveSolve(solveAt(1*time.Second, 0.5))
	if got := m.Alerts(); len(got) != 0 {
		t.Fatalf("healthy monitor has alerts: %+v", got)
	}

	// First violation: pending.
	m.ObserveSolve(solveAt(2*time.Second, 5))
	a := findAlert(m.Alerts(), "condition_static", StatePending)
	if a == nil {
		t.Fatalf("no pending alert after violation: %+v", m.Alerts())
	}
	if a.Scope != "tag:T1" || a.Value != 5 || a.Threshold != 1 {
		t.Errorf("pending alert = %+v", a)
	}
	if m.CriticalFiring() {
		t.Error("CriticalFiring true while only pending")
	}

	// Still violating inside the hold-down: stays pending.
	m.ObserveSolve(solveAt(3*time.Second, 6))
	if findAlert(m.Alerts(), "condition_static", StatePending) == nil {
		t.Fatalf("alert left pending before hold-down: %+v", m.Alerts())
	}

	// Hold-down (2 s since start at t=2 s) expires at t=4 s: fires.
	m.ObserveSolve(solveAt(4*time.Second, 7))
	f := findAlert(m.Alerts(), "condition_static", StateFiring)
	if f == nil {
		t.Fatalf("alert did not fire after hold-down: %+v", m.Alerts())
	}
	if f.FiredAt != 4*time.Second || f.StartedAt != 2*time.Second {
		t.Errorf("FiredAt = %v StartedAt = %v, want 4s / 2s", f.FiredAt, f.StartedAt)
	}
	if !m.CriticalFiring() {
		t.Error("CriticalFiring false with a firing critical alert")
	}

	// Healthy again: needs 3 s of health to resolve.
	m.ObserveSolve(solveAt(5*time.Second, 0.1))
	if findAlert(m.Alerts(), "condition_static", StateFiring) == nil {
		t.Fatalf("alert resolved before hysteresis: %+v", m.Alerts())
	}
	// A violation inside the resolve window restarts the hysteresis.
	m.ObserveSolve(solveAt(6*time.Second, 9))
	m.ObserveSolve(solveAt(7*time.Second, 0.1))
	m.ObserveSolve(solveAt(9*time.Second, 0.1))
	if findAlert(m.Alerts(), "condition_static", StateFiring) == nil {
		t.Fatalf("alert resolved too early after re-violation: %+v", m.Alerts())
	}
	m.ObserveSolve(solveAt(10*time.Second, 0.1))
	r := findAlert(m.Alerts(), "condition_static", StateResolved)
	if r == nil {
		t.Fatalf("alert did not resolve: %+v", m.Alerts())
	}
	if r.ResolvedAt != 10*time.Second {
		t.Errorf("ResolvedAt = %v, want 10s", r.ResolvedAt)
	}
	if m.CriticalFiring() {
		t.Error("CriticalFiring true after resolve")
	}
}

func TestAlertDebounceDiscardsHealedPending(t *testing.T) {
	m := staticConditionMonitor(t, 5*time.Second, 0)
	m.ObserveSolve(solveAt(1*time.Second, 5)) // pending
	m.ObserveSolve(solveAt(2*time.Second, 0.5))
	if got := m.Alerts(); len(got) != 0 {
		t.Fatalf("healed pending alert survived: %+v", got)
	}
	// A later violation starts a fresh pending with a fresh hold-down.
	m.ObserveSolve(solveAt(3*time.Second, 5))
	a := findAlert(m.Alerts(), "condition_static", StatePending)
	if a == nil || a.StartedAt != 3*time.Second {
		t.Fatalf("restarted pending = %+v", a)
	}
}

func TestAlertZeroHoldDownFiresImmediately(t *testing.T) {
	m := staticConditionMonitor(t, 0, 0)
	m.ObserveSolve(solveAt(1*time.Second, 5))
	if findAlert(m.Alerts(), "condition_static", StateFiring) == nil {
		t.Fatalf("zero hold-down must fire on the first violating tick: %+v", m.Alerts())
	}
}

func TestResolvedHistoryBounded(t *testing.T) {
	m, err := New(Config{
		Rules: []Rule{{
			Name: "condition_static", Signal: SignalCondition,
			Threshold: 1, HoldDown: 0, Severity: SevWarning,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Duration(0)
	for cycle := 0; cycle < resolvedHistory+1; cycle++ {
		m.ObserveSolve(solveAt(base+1*time.Second, 5))
		m.ObserveSolve(solveAt(base+2*time.Second, 5)) // fires
		m.ObserveSolve(solveAt(base+3*time.Second, 0)) // resolves (no hysteresis)
		base += 10 * time.Second
	}
	resolved := 0
	for _, a := range m.Alerts() {
		if a.State == StateResolved {
			resolved++
		}
	}
	if resolved != resolvedHistory {
		t.Errorf("resolved history holds %d, want %d", resolved, resolvedHistory)
	}
}
