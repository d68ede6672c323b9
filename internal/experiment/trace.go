package experiment

import (
	"github.com/rfid-lion/lion/internal/calib"
	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/obs"
	"github.com/rfid-lion/lion/internal/sim"
	"github.com/rfid-lion/lion/internal/traject"
)

// TraceCalibration runs one instrumented calibration solve on the simulated
// testbed: a three-line scan of a default antenna followed by the adaptive
// range/interval sweep of Sec. IV-C-1, with every candidate solve and IRWLS
// iteration recorded on tr. It returns the calibration so callers can
// report the estimate alongside the trace.
func TraceCalibration(seed int64, tr *obs.Tracer) (calib.Result, error) {
	tb, err := newTestbed(seed)
	if err != nil {
		return calib.Result{}, err
	}
	ant, err := tb.defaultAntenna("A1", geom.V3(0.1, 0.8, 0), geom.V3(0, -1, 0))
	if err != nil {
		return calib.Result{}, err
	}
	tag := &sim.Tag{ID: "T1", PhaseOffset: 0.4}
	scan, err := traject.NewThreeLineScan(traject.ThreeLineConfig{
		XMin: -0.6, XMax: 0.6,
		YSpacing: 0.2, ZSpacing: 0.2, Speed: 0.05,
	})
	if err != nil {
		return calib.Result{}, err
	}
	samples, err := tb.reader.Scan(ant, tag, scan)
	if err != nil {
		return calib.Result{}, err
	}
	solve := core.DefaultSolveOptions()
	solve.Trace = tr
	return calib.Estimate(calib.ModeThreeLine, sim.Positions(samples), sim.Phases(samples),
		sim.Segments(samples), calib.Config{Lambda: tb.lambda, Smooth: smoothWindow, Adaptive: true, Solve: solve})
}
