package lion_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	lion "github.com/rfid-lion/lion"
)

// The closed-loop recalibration stack must be drivable entirely through the
// facade: build the monitor and engine, wire a RecalController between them,
// feed a drifted trace, trigger a re-solve, and watch the StreamProfile swap.
func TestRecalFacadeClosedLoop(t *testing.T) {
	antenna := lion.V3(0.05, 0.8, 0)
	lambda := lion.DefaultBand().Wavelength()
	const staleOffset = 1.2
	trueOffset := lion.WrapPhase(staleOffset + 0.6)

	mon, err := lion.NewHealthMonitor(lion.HealthConfig{
		Rules: []lion.HealthRule{}, // manual triggers only
		Calibrations: []lion.HealthCalibration{{
			Antenna: "A1", Center: antenna, Offset: staleOffset, Lambda: lambda,
			Window: 64,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := lion.NewStreamEngine(lion.StreamConfig{
		WindowSize: 128,
		MinSamples: 32,
		SolveEvery: 16,
		Solver:     lion.StreamLine2DSolver(lambda, []float64{0.2}, true, lion.DefaultSolveOptions()),
		Monitor:    mon,
		Antenna:    "A1",
		Profile:    &lion.StreamProfile{Antenna: "A1", Center: antenna, Offset: staleOffset, Lambda: lambda},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close(context.Background())

	ctrl, err := lion.NewRecalController(lion.RecalConfig{
		Engine:       eng,
		Monitor:      mon,
		Antenna:      "A1",
		Lambda:       lambda,
		PositiveSide: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	mon.SetOnTransition(ctrl.OnTransition)

	for i := 0; i < 128; i++ {
		pos := lion.V3(-1.0+0.005*float64(i), 0, 0)
		phase := lion.WrapPhase(lion.PhaseOfDistance(antenna.Dist(pos), lambda) + trueOffset)
		if err := eng.Ingest("T1", lion.StreamSample{
			Time: time.Duration(i) * 10 * time.Millisecond, Pos: pos, Phase: phase,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	ev, err := ctrl.Trigger("facade")
	if err != nil {
		t.Fatal(err)
	}
	if ev.Outcome != lion.RecalSwapped {
		t.Fatalf("trigger outcome %q (%+v), want %q", ev.Outcome, ev, lion.RecalSwapped)
	}
	if d := math.Abs(lion.WrapPhaseSigned(ev.NewOffset - trueOffset)); d > 0.05 {
		t.Errorf("re-solved offset %v, want ≈%v", ev.NewOffset, trueOffset)
	}
	prof, version, ok := eng.ActiveProfile()
	if !ok || version != 2 {
		t.Fatalf("post-swap profile version=%d ok=%v, want 2", version, ok)
	}
	if d := math.Abs(lion.WrapPhaseSigned(prof.Offset - trueOffset)); d > 0.05 {
		t.Errorf("active profile offset %v, want ≈%v", prof.Offset, trueOffset)
	}
	if hist := ctrl.History(); len(hist) != 1 || hist[0].Outcome != lion.RecalSwapped {
		t.Fatalf("history %+v, want one swapped event", hist)
	}

	// The offline calibration solver is reachable through the same facade
	// and agrees with the controller's estimate.
	positions := make([]lion.Vec3, 96)
	wrapped := make([]float64, 96)
	for i := range positions {
		positions[i] = lion.V3(-1.0+0.005*float64(i), 0, 0)
		wrapped[i] = lion.WrapPhase(lion.PhaseOfDistance(antenna.Dist(positions[i]), lambda) + trueOffset)
	}
	res, err := lion.EstimateCalibrationLine(positions, wrapped, lion.CalibConfig{
		Lambda: lambda, Adaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(lion.WrapPhaseSigned(res.Offset - trueOffset)); d > 0.05 {
		t.Errorf("EstimateCalibrationLine offset %v, want ≈%v", res.Offset, trueOffset)
	}
	if rms := lion.CalibrationResidualRMS(positions, wrapped, res.Center, res.Offset, lambda); !(rms < 0.05) {
		t.Errorf("CalibrationResidualRMS = %v, want < 0.05", rms)
	}

	ctrl.Close()
	if _, err := ctrl.Trigger("late"); !errors.Is(err, lion.ErrRecalClosed) {
		t.Errorf("Trigger after Close: err = %v, want lion.ErrRecalClosed", err)
	}
}
