package health

import (
	"testing"
	"time"
)

// solveAt builds a healthy observation at stream time t.
func solveAt(t time.Duration, residual float64) SolveObservation {
	return SolveObservation{
		Tag: "T1", Time: t, Window: 64, Residual: residual,
		Condition: 10, Iterations: 3, Latency: 100 * time.Microsecond,
	}
}

// staticResidualMonitor builds a monitor with one static residual rule.
func staticResidualMonitor(t *testing.T, hold, resolve time.Duration) *Monitor {
	t.Helper()
	m, err := New(Config{
		Rules: []Rule{{
			Name: "residual_static", Signal: SignalResidual, Kind: KindStatic,
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
	m := staticResidualMonitor(t, 2*time.Second, 3*time.Second)

	// Healthy traffic: no alerts.
	m.ObserveSolve(solveAt(1*time.Second, 0.5))
	if got := m.Alerts(); len(got) != 0 {
		t.Fatalf("healthy monitor has alerts: %+v", got)
	}

	// First violation: pending.
	m.ObserveSolve(solveAt(2*time.Second, 5))
	a := findAlert(m.Alerts(), "residual_static", StatePending)
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
	if findAlert(m.Alerts(), "residual_static", StatePending) == nil {
		t.Fatalf("alert left pending before hold-down: %+v", m.Alerts())
	}

	// Hold-down (2 s since start at t=2 s) expires at t=4 s: fires.
	m.ObserveSolve(solveAt(4*time.Second, 7))
	f := findAlert(m.Alerts(), "residual_static", StateFiring)
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
	if findAlert(m.Alerts(), "residual_static", StateFiring) == nil {
		t.Fatalf("alert resolved before hysteresis: %+v", m.Alerts())
	}
	// A violation inside the resolve window restarts the hysteresis.
	m.ObserveSolve(solveAt(6*time.Second, 9))
	m.ObserveSolve(solveAt(7*time.Second, 0.1))
	m.ObserveSolve(solveAt(9*time.Second, 0.1))
	if findAlert(m.Alerts(), "residual_static", StateFiring) == nil {
		t.Fatalf("alert resolved too early after re-violation: %+v", m.Alerts())
	}
	m.ObserveSolve(solveAt(10*time.Second, 0.1))
	r := findAlert(m.Alerts(), "residual_static", StateResolved)
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
	m := staticResidualMonitor(t, 5*time.Second, 0)
	m.ObserveSolve(solveAt(1*time.Second, 5)) // pending
	m.ObserveSolve(solveAt(2*time.Second, 0.5))
	if got := m.Alerts(); len(got) != 0 {
		t.Fatalf("healed pending alert survived: %+v", got)
	}
	// A later violation starts a fresh pending with a fresh hold-down.
	m.ObserveSolve(solveAt(3*time.Second, 5))
	a := findAlert(m.Alerts(), "residual_static", StatePending)
	if a == nil || a.StartedAt != 3*time.Second {
		t.Fatalf("restarted pending = %+v", a)
	}
}

func TestAlertZeroHoldDownFiresImmediately(t *testing.T) {
	m := staticResidualMonitor(t, 0, 0)
	m.ObserveSolve(solveAt(1*time.Second, 5))
	if findAlert(m.Alerts(), "residual_static", StateFiring) == nil {
		t.Fatalf("zero hold-down must fire on the first violating tick: %+v", m.Alerts())
	}
}

func TestDeviationRuleWarmupGate(t *testing.T) {
	m, err := New(Config{
		Rules: []Rule{{
			Name: "residual_dev", Signal: SignalResidual, Kind: KindDeviation,
			Threshold: 3, HoldDown: time.Second, Severity: SevWarning,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// An extreme value with no established baseline must not alert.
	m.ObserveSolve(solveAt(1*time.Second, 100))
	if got := m.Alerts(); len(got) != 0 {
		t.Fatalf("deviation alert during warmup: %+v", got)
	}
}

func TestDeviationRuleDetectsAnomaly(t *testing.T) {
	m, err := New(Config{
		Rules: []Rule{{
			Name: "residual_dev", Signal: SignalResidual, Kind: KindDeviation,
			Threshold: 3, HoldDown: 0, Severity: SevWarning,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Establish a tight baseline around 1.0.
	for i := 0; i < 20; i++ {
		m.ObserveSolve(solveAt(time.Duration(i+1)*time.Second, 1+0.01*float64(i%5)))
	}
	if got := m.Alerts(); len(got) != 0 {
		t.Fatalf("steady baseline raised alerts: %+v", got)
	}
	// A 20x step is hundreds of sigma out: fires immediately (no hold-down).
	m.ObserveSolve(solveAt(30*time.Second, 20))
	a := findAlert(m.Alerts(), "residual_dev", StateFiring)
	if a == nil {
		t.Fatalf("no firing deviation alert: %+v", m.Alerts())
	}
	if a.RawValue != 20 || a.Value < 3 {
		t.Errorf("deviation alert Value (z) = %v RawValue = %v", a.Value, a.RawValue)
	}
	if a.Baseline > 1.1 {
		t.Errorf("alert Baseline = %v, want the pre-anomaly mean near 1.02", a.Baseline)
	}
	// Baselines self-heal: sustained 20s become the new normal and the
	// alert eventually resolves even without an operator fix.
	for i := 31; i < 80; i++ {
		m.ObserveSolve(solveAt(time.Duration(i)*time.Second, 20))
	}
	if findAlert(m.Alerts(), "residual_dev", StateResolved) == nil {
		t.Fatalf("deviation alert did not self-heal: %+v", m.Alerts())
	}
}

func TestResolvedHistoryBounded(t *testing.T) {
	m, err := New(Config{
		Rules: []Rule{{
			Name: "residual_static", Signal: SignalResidual, Kind: KindStatic,
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
