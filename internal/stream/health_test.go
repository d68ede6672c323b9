package stream

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/health"
	lionobs "github.com/rfid-lion/lion/internal/obs"
	"github.com/rfid-lion/lion/internal/rf"
)

// driftTrace synthesizes n clean linear-model samples: a tag marching along
// x past an antenna, phases following Eq. 2 exactly with the given constant
// offset. Clean phases keep the drift estimate noise-free, so the test's
// thresholds are exact.
func driftTrace(antenna geom.Vec3, lambda, offset float64, n int, start time.Duration) []Sample {
	out := make([]Sample, n)
	for i := range out {
		pos := geom.V3(-0.6+0.001*float64(i%1200), 0, 0)
		out[i] = Sample{
			Time:  start + time.Duration(i)*10*time.Millisecond,
			Pos:   pos,
			Phase: rf.WrapPhase(rf.PhaseOfDistance(antenna.Dist(pos), lambda) + offset),
		}
	}
	return out
}

// TestDriftAlertEndToEnd replays a stream whose phase offset steps mid-way —
// the uncalibrated-drift failure mode the paper's calibration exists to
// prevent — and walks the full loop: monitor sees every ingest, the drift
// rule goes pending then firing within the hold-down, the alert names the
// offending antenna with the drift estimate and the tag whose solve confirmed
// it, and correcting the offset resolves the alert.
func TestDriftAlertEndToEnd(t *testing.T) {
	antenna := geom.V3(0.1, 0.8, 0)
	lambda := rf.DefaultBand().Wavelength()
	const calOffset = 2.74
	const holdDown = 200 * time.Millisecond

	mon, err := health.New(health.Config{
		Rules: []health.Rule{{
			Name: "calibration_drift", Signal: health.SignalDrift,
			Threshold: 0.02, HoldDown: holdDown, Severity: health.SevCritical,
		}},
		Calibrations: []health.Calibration{{
			Antenna: "A1", Center: antenna, Offset: calOffset, Lambda: lambda,
			Window: 64,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		WindowSize: 128,
		MinSamples: 8,
		SolveEvery: 16,
		Smooth:     5,
		Workers:    2,
		Solver:     Line2DSolver(lambda, []float64{0.1}, true, core.DefaultSolveOptions()),
		Monitor:    mon,
		Antenna:    "A1",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Feed in bursts with a Flush between them: unpaced ingest would
	// coalesce the whole phase into one or two solve ticks at the final
	// stream time, which starves the hold-down state machine of distinct
	// evaluation times. Chunking reproduces what paced replay delivers.
	feed := func(samples []Sample) {
		t.Helper()
		for i := 0; i < len(samples); i += 40 {
			end := min(i+40, len(samples))
			for _, s := range samples[i:end] {
				if err := e.Ingest("T1", s); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Phase 1: the calibrated offset. No drift, no alerts.
	phase1 := driftTrace(antenna, lambda, calOffset, 400, 0)
	feed(phase1)
	if got := mon.Alerts(); len(got) != 0 {
		t.Fatalf("healthy replay raised alerts: %+v", got)
	}

	// Phase 2: the offset steps by 0.05 λ worth of ranging error — an
	// uncalibrated antenna swap. The rule thresholds at 0.02 λ.
	step := 0.05 * 4 * math.Pi
	t2 := phase1[len(phase1)-1].Time + 10*time.Millisecond
	feed(driftTrace(antenna, lambda, calOffset+step, 400, t2))

	firing := findHealthAlert(mon.Alerts(), health.StateFiring)
	if firing == nil {
		t.Fatalf("drift alert not firing after offset step: %+v", mon.Alerts())
	}
	if firing.Scope != "antenna:A1" {
		t.Errorf("alert scope = %q, want antenna:A1", firing.Scope)
	}
	if math.Abs(firing.Value-0.05) > 0.005 {
		t.Errorf("alert drift estimate = %v λ, want ≈0.05", firing.Value)
	}
	// Firing happened within the hold-down of pending, on stream time.
	if d := firing.FiredAt - firing.StartedAt; d < holdDown || d > holdDown+time.Second {
		t.Errorf("fired %v after pending, want hold-down %v (+ solve cadence)", d, holdDown)
	}
	if !mon.CriticalFiring() {
		t.Error("CriticalFiring false while drift alert fires")
	}
	if firing.Tag != "T1" {
		t.Errorf("alert tag = %q, want T1, whose solve confirmed it", firing.Tag)
	}
	// Drift status names the antenna with the re-estimated offset.
	drifts := mon.Drifts()
	if len(drifts) != 1 || drifts[0].Antenna != "A1" || !drifts[0].Valid {
		t.Fatalf("Drifts() = %+v", drifts)
	}
	if math.Abs(drifts[0].DriftLambda-0.05) > 0.005 {
		t.Errorf("DriftLambda = %v, want ≈0.05", drifts[0].DriftLambda)
	}

	// Phase 3: offset corrected. The sliding window flushes and the alert
	// resolves after the hysteresis.
	t3 := t2 + 400*10*time.Millisecond
	feed(driftTrace(antenna, lambda, calOffset, 400, t3))
	resolved := findHealthAlert(mon.Alerts(), health.StateResolved)
	if resolved == nil {
		t.Fatalf("drift alert did not resolve after correction: %+v", mon.Alerts())
	}
	if mon.CriticalFiring() {
		t.Error("CriticalFiring true after resolution")
	}
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

func findHealthAlert(alerts []health.Alert, state health.State) *health.Alert {
	for i := range alerts {
		if alerts[i].State == state {
			return &alerts[i]
		}
	}
	return nil
}

// TestMonitorDropAccounting checks that real sample losses — evicted
// samples no dispatched solve saw, by age or by a full window sliding —
// reach the monitor's drop-rate signal, and that routine rotation does not:
// a span aging out samples that solves already covered, or a full window
// sliding on every sample. Flagging rotation as loss would fire the drop
// rule on every healthy long-running stream.
func TestMonitorDropAccounting(t *testing.T) {
	solver := func(win []core.PosPhase, _ *lionobs.Tracer) (*core.Solution, error) {
		return &core.Solution{Position: geom.V3(0, 0, 0)}, nil
	}
	// run feeds 64 samples of one tag, every 10 ms, and returns the alerts
	// of a zero-hold-down drop rule. It flushes only after each solveEvery-th
	// sample, whose cadence dispatch has just run, so Flush waits for that
	// solve and dispatches nothing the cadence would not.
	run := func(cfg Config) []health.Alert {
		t.Helper()
		mon, err := health.New(health.Config{
			Rules: []health.Rule{{
				Name: "stream_drops", Signal: health.SignalDropRate,
				Threshold: 0.25, HoldDown: 0, Severity: health.SevWarning,
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Solver, cfg.Monitor, cfg.Antenna, cfg.Workers = solver, mon, "A1", 1
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range 64 {
			s := Sample{Time: time.Duration(i) * 10 * time.Millisecond, Pos: geom.V3(float64(i), 0, 0), Phase: 1}
			if err := e.Ingest("T1", s); err != nil {
				t.Fatal(err)
			}
			if (i+1)%cfg.solveEvery() == 0 {
				if err := e.Flush(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		return mon.Alerts()
	}

	// A 5 ms span against 10 ms spacing keeps one sample per window, and a
	// solve every 4 samples sees only the newest: 3 of every 4 samples age
	// out unseen, a sustained ~43% loss rate.
	lossy := run(Config{WindowSize: 64, WindowSpan: 5 * time.Millisecond, MinSamples: 1, SolveEvery: 4})
	if a := findHealthAlert(lossy, health.StateFiring); a == nil {
		t.Fatalf("drop-rate alert not firing at ~43%% loss: %+v", lossy)
	}
	// A full 4-sample window solved every 8 samples slides 4 unseen
	// samples out per solve: a ~33% loss rate.
	slid := run(Config{WindowSize: 4, MinSamples: 1, SolveEvery: 8})
	if a := findHealthAlert(slid, health.StateFiring); a == nil {
		t.Fatalf("drop-rate alert not firing at ~33%% overflow loss: %+v", slid)
	}

	// The same span with a solve on every sample: each sample ages out
	// after the solve that saw it.
	if got := run(Config{WindowSize: 64, WindowSpan: 5 * time.Millisecond, MinSamples: 1, SolveEvery: 1}); len(got) != 0 {
		t.Fatalf("span rotation of solved samples raised drop alerts: %+v", got)
	}
	// A full window sliding on every sample.
	if got := run(Config{WindowSize: 4, MinSamples: 1, SolveEvery: 1}); len(got) != 0 {
		t.Fatalf("full-window rotation raised drop alerts: %+v", got)
	}
}

// TestStressMonitorConcurrent feeds concurrent window solves through a fully
// armed monitor while pollers hammer the read APIs the liond endpoints use
// (/v1/alerts and explain → Alerts/Drifts, /metrics → WritePrometheus).
// Run under -race this exercises the engine-mutex → monitor-mutex lock
// ordering from every side.
func TestStressMonitorConcurrent(t *testing.T) {
	antenna := geom.V3(0.1, 0.8, 0)
	lambda := rf.DefaultBand().Wavelength()
	reg := lionobs.NewRegistry()
	mon, err := health.New(health.Config{
		Calibrations: []health.Calibration{{
			Antenna: "A1", Center: antenna, Offset: 2.74, Lambda: lambda,
		}},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		WindowSize: 64, MinSamples: 8, SolveEvery: 8, Smooth: 5, Workers: 4,
		Solver:   Line2DSolver(lambda, []float64{0.05}, true, core.DefaultSolveOptions()),
		Registry: reg,
		Monitor:  mon,
		Antenna:  "A1",
	})
	if err != nil {
		t.Fatal(err)
	}

	pollCtx, stopPoll := context.WithCancel(context.Background())
	var pollWG sync.WaitGroup
	for range 3 {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			for pollCtx.Err() == nil {
				mon.Alerts()
				mon.Drifts()
				mon.CriticalFiring()
				var sb strings.Builder
				reg.WritePrometheus(&sb)
			}
		}()
	}

	const publishers = 6
	const perPub = 400
	var pubWG sync.WaitGroup
	for i := range publishers {
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			tag := string(rune('A' + i))
			trace := driftTrace(antenna, lambda, 2.74, perPub, 0)
			for _, s := range trace {
				if err := e.Ingest(tag, s); err != nil {
					t.Errorf("publisher %s: %v", tag, err)
					return
				}
			}
		}()
	}
	pubWG.Wait()
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	stopPoll()
	pollWG.Wait()

	if got := e.Metrics().Solves; got == 0 {
		t.Fatal("no solves completed under load")
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "lion_health_solves_observed_total") {
		t.Error("health metrics missing from shared registry")
	}
	evals, ok := reg.FindHistogram("lion_health_eval_seconds")
	if !ok {
		t.Fatal("lion_health_eval_seconds missing from shared registry")
	}
	if got, want := evals.Count(), e.Metrics().Solves; got != want {
		t.Errorf("the monitor evaluated %d solves of %d", got, want)
	}
}
