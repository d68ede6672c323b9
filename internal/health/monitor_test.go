package health

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/obs"
)

func TestNewValidatesConfig(t *testing.T) {
	dup := Rule{Name: "r", Signal: SignalCondition, Threshold: 1}
	if _, err := New(Config{Rules: []Rule{dup, dup}}); err == nil {
		t.Error("duplicate rule names accepted")
	}
	if _, err := New(Config{Rules: []Rule{{Name: "Bad Name", Signal: SignalCondition, Threshold: 1}}}); err == nil {
		t.Error("invalid rule name accepted")
	}
	if _, err := New(Config{Rules: []Rule{{Name: "r", Signal: "residual_norm", Threshold: 1}}}); err == nil {
		t.Error("unknown signal accepted")
	}
	cal := testCalibration()
	if _, err := New(Config{Calibrations: []Calibration{cal, cal}}); err == nil {
		t.Error("duplicate calibrations accepted")
	}
	if _, err := New(Config{Calibrations: []Calibration{{Antenna: "A1", Lambda: -1}}}); err == nil {
		t.Error("invalid calibration accepted")
	}
	// Defaults: nil rules means DefaultRules.
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Rules()) != len(DefaultRules()) {
		t.Errorf("default rule count = %d, want %d", len(m.Rules()), len(DefaultRules()))
	}
}

func TestMonitorMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := New(Config{
		Rules: []Rule{{
			Name: "condition_static", Signal: SignalCondition,
			Threshold: 1, HoldDown: 0, Severity: SevCritical,
		}},
		Calibrations: []Calibration{testCalibration()},
		Registry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Registry() != reg {
		t.Error("Registry() does not return the configured registry")
	}
	o := solveAt(1*time.Second, 5)
	o.Trace = []obs.Event{{Kind: obs.KindSpanStart, Span: "solve"}}
	m.ObserveSolve(o) // pending
	o.Time = 2 * time.Second
	m.ObserveSolve(o) // firing

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		"lion_health_solves_observed_total 2",
		"lion_health_flight_records_total 2",
		`lion_health_alert_transitions_total{state="pending"} 1`,
		`lion_health_alert_transitions_total{state="firing"} 1`,
		`lion_health_alerts_firing{rule="condition_static"} 1`,
		`lion_health_drift_lambda{antenna="A1"} 0`,
		"lion_health_alerts_active 1",
		"lion_health_flight_traces 2",
		"lion_health_eval_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}

	// Resolve: firing gauge returns to zero.
	m.ObserveSolve(solveAt(3*time.Second, 0.1))
	sb.Reset()
	reg.WritePrometheus(&sb)
	text = sb.String()
	for _, want := range []string{
		`lion_health_alerts_firing{rule="condition_static"} 0`,
		`lion_health_alert_transitions_total{state="resolved"} 1`,
		"lion_health_alerts_active 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
}

func TestAlertsOrdering(t *testing.T) {
	m, err := New(Config{
		Rules: []Rule{
			{Name: "condition_fast", Signal: SignalCondition,
				Threshold: 1, HoldDown: 0, Severity: SevWarning},
			{Name: "condition_slow", Signal: SignalCondition,
				Threshold: 100, HoldDown: time.Hour, Severity: SevWarning},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := solveAt(1*time.Second, 1e6)
	m.ObserveSolve(bad) // both pending
	bad.Time = 2 * time.Second
	m.ObserveSolve(bad) // condition_fast fires; condition_slow stays pending (1h hold)
	got := m.Alerts()
	if len(got) != 2 {
		t.Fatalf("Alerts() = %+v", got)
	}
	if got[0].State != StateFiring || got[0].Rule != "condition_fast" {
		t.Errorf("Alerts()[0] = %+v, want firing condition_fast first", got[0])
	}
	if got[1].State != StatePending || got[1].Rule != "condition_slow" {
		t.Errorf("Alerts()[1] = %+v, want pending condition_slow", got[1])
	}
}

func TestDropRateSignal(t *testing.T) {
	m, err := New(Config{
		Rules: []Rule{{
			Name: "stream_drops", Signal: SignalDropRate, Threshold: 0.25, HoldDown: 0, Severity: SevWarning,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pos := geom.V3(0, 0, 0)
	// 1 accepted, 9 dropped between solve ticks: drop ratio 0.9.
	m.ObserveSample("A1", 1*time.Second, pos, 0)
	for i := 0; i < 9; i++ {
		m.ObserveDrop(1 * time.Second)
	}
	m.ObserveSolve(solveAt(2*time.Second, 0.1))
	m.ObserveSolve(solveAt(3*time.Second, 0.1))
	a := findAlert(m.Alerts(), "stream_drops", StateFiring)
	if a == nil {
		t.Fatalf("no firing drop-rate alert: %+v", m.Alerts())
	}
	if a.Scope != "stream" {
		t.Errorf("drop alert scope = %q, want stream", a.Scope)
	}
	if a.Value < 0.25 {
		t.Errorf("drop alert value = %v, want > 0.25", a.Value)
	}
	// The first rate observation seeds the EWMA; the tick after it saw no
	// new samples, so the value is still the instantaneous ratio.
	if a.Value != 0.9 {
		t.Errorf("drop alert value = %v, want the seeded ratio 0.9", a.Value)
	}
}

func TestErrorRateSignal(t *testing.T) {
	m, err := New(Config{
		Rules: []Rule{{
			Name: "solve_errors", Signal: SignalErrorRate, Threshold: 0.5, HoldDown: 0, Severity: SevCritical,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	fail := solveAt(1*time.Second, 0)
	fail.Failed, fail.Err = true, "rank deficient"
	m.ObserveSolve(fail)
	fail.Time = 2 * time.Second
	m.ObserveSolve(fail)
	fail.Time = 3 * time.Second
	m.ObserveSolve(fail)
	if a := findAlert(m.Alerts(), "solve_errors", StateFiring); a == nil {
		t.Fatalf("no firing error-rate alert: %+v", m.Alerts())
	} else if a.Value != 1 {
		t.Errorf("error rate after three failures = %v, want 1", a.Value)
	}
	// Recovery: healthy solves pull the EWMA back under threshold. At
	// α = 0.2 it reads 0.8, 0.64, 0.512, then 0.4096 — the fourth healthy
	// solve resolves the alert, which keeps the last violating value.
	for i := 4; i < 12; i++ {
		m.ObserveSolve(solveAt(time.Duration(i)*time.Second, 0.1))
	}
	a := findAlert(m.Alerts(), "solve_errors", StateResolved)
	if a == nil {
		t.Fatalf("error-rate alert did not resolve: %+v", m.Alerts())
	}
	if math.Abs(a.Value-0.512) > 1e-12 || a.ResolvedAt != 7*time.Second {
		t.Errorf("resolved at %v with value %v, want 7s and 0.512", a.ResolvedAt, a.Value)
	}
}

func TestDefaultRulesValid(t *testing.T) {
	for _, r := range DefaultRules() {
		if err := r.validate(); err != nil {
			t.Errorf("default rule %q invalid: %v", r.Name, err)
		}
	}
}

func TestDriftLambdaMatchesRangingError(t *testing.T) {
	// Sanity of the λ-fraction convention: a drift of Δφ radians in the
	// phase offset biases ranging by Δd = Δφ·λ/(4π), i.e. DriftLambda·λ.
	driftRad := 0.3
	lambda := 0.328
	wantMetres := driftRad * lambda / (4 * math.Pi)
	gotMetres := (driftRad / (4 * math.Pi)) * lambda
	if math.Abs(wantMetres-gotMetres) > 1e-15 {
		t.Errorf("λ-fraction convention inconsistent: %v vs %v", wantMetres, gotMetres)
	}
}
