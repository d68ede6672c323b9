package health

import (
	"math"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
)

// feedDrift streams n synthetic samples with the given true phase offset
// into the estimator: tag positions march along x, phases follow the linear
// model phase = 4πd/λ + offset (mod 2π).
func feedDrift(d *driftEstimator, n int, offset float64) {
	cal := d.cal
	for i := 0; i < n; i++ {
		pos := geom.V3(0.5+0.01*float64(i%100), 0, 0)
		phase := rf.WrapPhase(rf.PhaseOfDistance(cal.Center.Dist(pos), cal.Lambda) + offset)
		d.add(pos, phase)
	}
}

func testCalibration() Calibration {
	return Calibration{
		Antenna: "A1",
		Center:  geom.V3(0, 0, 1.2),
		Offset:  1.3,
		Lambda:  rf.DefaultBand().Wavelength(),
		Window:  64,
	}
}

func TestDriftEstimatorRecoversOffset(t *testing.T) {
	d := newDriftEstimator(testCalibration())
	// Before driftMinSamples the estimate is invalid.
	feedDrift(d, driftMinSamples-1, 1.3)
	if st := d.status(); st.Valid {
		t.Fatalf("estimate valid at %d samples, min %d", st.Samples, driftMinSamples)
	}
	feedDrift(d, 66-driftMinSamples, 1.3)
	st := d.status()
	if !st.Valid {
		t.Fatal("estimate invalid after 65 samples")
	}
	if math.Abs(st.Estimated-1.3) > 1e-9 {
		t.Errorf("Estimated = %v, want 1.3", st.Estimated)
	}
	if math.Abs(st.DriftRad) > 1e-9 || st.DriftLambda > 1e-9 {
		t.Errorf("drift of healthy antenna = %v rad (%v lambda)", st.DriftRad, st.DriftLambda)
	}
}

func TestDriftEstimatorDetectsOffsetStep(t *testing.T) {
	d := newDriftEstimator(testCalibration())
	feedDrift(d, 64, 1.3)
	// The offset steps by +0.5 rad; once the window turns over, the
	// estimate follows.
	feedDrift(d, 64, 1.8)
	st := d.status()
	if !st.Valid {
		t.Fatal("estimate invalid")
	}
	if math.Abs(st.DriftRad-0.5) > 1e-9 {
		t.Errorf("DriftRad = %v, want 0.5", st.DriftRad)
	}
	want := 0.5 / (4 * math.Pi)
	if math.Abs(st.DriftLambda-want) > 1e-12 {
		t.Errorf("DriftLambda = %v, want %v", st.DriftLambda, want)
	}
}

func TestDriftEstimatorSignedWrapAround(t *testing.T) {
	// Calibrated offset near 0; true offset just below 2π. The naive
	// difference is ≈ +2π, but the signed wrap must report a small
	// negative drift.
	cal := testCalibration()
	cal.Offset = 0.1
	d := newDriftEstimator(cal)
	feedDrift(d, 64, 2*math.Pi-0.1)
	st := d.status()
	if !st.Valid {
		t.Fatal("estimate invalid")
	}
	if math.Abs(st.DriftRad-(-0.2)) > 1e-9 {
		t.Errorf("DriftRad = %v, want -0.2", st.DriftRad)
	}
}

func TestCalibrationValidate(t *testing.T) {
	good := testCalibration()
	if err := good.validate(); err != nil {
		t.Fatalf("valid calibration rejected: %v", err)
	}
	cases := []Calibration{
		{Center: geom.V3(0, 0, 0), Lambda: 0.3},                          // no antenna
		{Antenna: "A1", Lambda: 0},                                       // zero wavelength
		{Antenna: "A1", Lambda: 0.3, Offset: math.NaN()},                 // NaN offset
		{Antenna: "A1", Lambda: 0.3, Window: -1},                         // negative window
		{Antenna: "A1", Lambda: 0.3, Center: geom.V3(math.Inf(1), 0, 0)}, // bad center
	}
	for i, c := range cases {
		if err := c.validate(); err == nil {
			t.Errorf("case %d: invalid calibration %+v accepted", i, c)
		}
	}
}

// TestNewRejectsDriftWindowBelowMinimum: a drift window shorter than the
// estimator's validity gate can never hold enough samples for a Valid
// estimate, so the drift alert could never fire. New must refuse it
// instead of running a detector that is silently off.
func TestNewRejectsDriftWindowBelowMinimum(t *testing.T) {
	cal := testCalibration()
	cal.Window = driftMinSamples - 1
	if _, err := New(Config{Calibrations: []Calibration{cal}}); err == nil {
		t.Fatalf("window %d below the %d-sample minimum accepted", cal.Window, driftMinSamples)
	}
	cal.Window = driftMinSamples
	m, err := New(Config{Calibrations: []Calibration{cal}})
	if err != nil {
		t.Fatalf("window at the minimum rejected: %v", err)
	}
	if err := m.SwapCalibration(cal.Antenna, cal.Center, cal.Offset+0.1, cal.Lambda); err != nil {
		t.Fatalf("swap at the minimum window rejected: %v", err)
	}
	d := newDriftEstimator(cal)
	feedDrift(d, 1000, cal.Offset)
	if st := d.status(); !st.Valid {
		t.Errorf("minimum window never validates: %+v", st)
	}
}

func TestMonitorDriftAlertEndToEnd(t *testing.T) {
	cal := testCalibration()
	m, err := New(Config{
		Rules: []Rule{{
			Name: "calibration_drift", Signal: SignalDrift,
			Threshold: 0.02, HoldDown: 2 * time.Second, Severity: SevCritical,
		}},
		Calibrations: []Calibration{cal},
	})
	if err != nil {
		t.Fatal(err)
	}
	feed := func(n int, offset float64, base time.Duration) time.Duration {
		t := base
		for i := 0; i < n; i++ {
			pos := geom.V3(0.5+0.01*float64(i%100), 0, 0)
			phase := rf.WrapPhase(rf.PhaseOfDistance(cal.Center.Dist(pos), cal.Lambda) + offset)
			m.ObserveSample(cal.Antenna, t, pos, phase)
			t += 10 * time.Millisecond
		}
		return t
	}
	// Healthy stream, then a solve tick to run the rules.
	now := feed(64, cal.Offset, 0)
	m.ObserveSolve(solveAt(now, 0.1))
	if got := m.Alerts(); len(got) != 0 {
		t.Fatalf("healthy drift raised alerts: %+v", got)
	}
	// Phase-offset step worth ~0.04 λ of ranging error (threshold 0.02 λ).
	step := 0.04 * 4 * math.Pi
	now = feed(64, cal.Offset+step, now)
	m.ObserveSolve(solveAt(now, 0.1))
	a := findAlert(m.Alerts(), "calibration_drift", StatePending)
	if a == nil {
		t.Fatalf("no pending drift alert: %+v", m.Alerts())
	}
	if a.Scope != "antenna:A1" {
		t.Errorf("drift alert scope = %q, want antenna:A1", a.Scope)
	}
	if math.Abs(a.Value-0.04) > 1e-9 {
		t.Errorf("drift alert Value = %v λ, want 0.04", a.Value)
	}
	// Hold-down passes on the logical clock: fires.
	m.ObserveSolve(solveAt(now+3*time.Second, 0.1))
	if findAlert(m.Alerts(), "calibration_drift", StateFiring) == nil {
		t.Fatalf("drift alert did not fire: %+v", m.Alerts())
	}
	if !m.CriticalFiring() {
		t.Error("CriticalFiring false with firing drift alert")
	}
	st := m.Drifts()
	if len(st) != 1 || !st[0].Valid || math.Abs(st[0].DriftLambda-0.04) > 1e-9 {
		t.Errorf("Drifts() = %+v", st)
	}
	// Offset corrected: the window flushes, drift returns under threshold,
	// and the alert resolves after the hysteresis.
	now = feed(64, cal.Offset, now+3*time.Second)
	m.ObserveSolve(solveAt(now, 0.1))
	m.ObserveSolve(solveAt(now+3*time.Second, 0.1))
	if findAlert(m.Alerts(), "calibration_drift", StateResolved) == nil {
		t.Fatalf("drift alert did not resolve: %+v", m.Alerts())
	}
}
