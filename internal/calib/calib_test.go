package calib

import (
	"errors"
	"math"
	"testing"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/sim"
	"github.com/rfid-lion/lion/internal/traject"
)

// lineScan synthesizes a clean single-line scan past an antenna: positions
// marching along x, phases following Eq. 2 exactly with a constant offset.
func lineScan(center geom.Vec3, lambda, offset float64, n int) ([]geom.Vec3, []float64) {
	positions := make([]geom.Vec3, n)
	wrapped := make([]float64, n)
	for i := range positions {
		x := -0.6 + 1.2*float64(i)/float64(n-1)
		positions[i] = geom.V3(x, 0, 0)
		wrapped[i] = rf.WrapPhase(rf.PhaseOfDistance(center.Dist(positions[i]), lambda) + offset)
	}
	return positions, wrapped
}

func TestEstimateLineRecoversCenterAndOffset(t *testing.T) {
	lambda := rf.DefaultBand().Wavelength()
	truth := geom.V3(0.07, 0.82, 0)
	const trueOffset = 2.31
	positions, wrapped := lineScan(truth, lambda, trueOffset, 400)

	for _, adaptive := range []bool{false, true} {
		res, err := EstimateLine(positions, wrapped, Config{
			Lambda:       lambda,
			PositiveSide: true,
			Adaptive:     adaptive,
		})
		if err != nil {
			t.Fatalf("adaptive=%v: %v", adaptive, err)
		}
		if d := res.Center.Dist(truth); d > 0.02 {
			t.Errorf("adaptive=%v: center %v is %.4f m from truth %v", adaptive, res.Center, d, truth)
		}
		if d := math.Abs(rf.WrapPhaseSigned(res.Offset - trueOffset)); d > 0.15 {
			t.Errorf("adaptive=%v: offset %.4f vs truth %.4f (|Δ|=%.4f)", adaptive, res.Offset, trueOffset, d)
		}
		if res.Samples != len(positions) {
			t.Errorf("adaptive=%v: Samples = %d, want %d", adaptive, res.Samples, len(positions))
		}
		// A clean synthetic scan must fit its own model tightly.
		if !(res.RMS < 0.3) {
			t.Errorf("adaptive=%v: self-fit RMS = %v, want < 0.3 rad", adaptive, res.RMS)
		}
	}
}

func TestEstimateLineRejectsBadInput(t *testing.T) {
	lambda := rf.DefaultBand().Wavelength()
	positions, wrapped := lineScan(geom.V3(0, 0.8, 0), lambda, 1, 100)

	if _, err := EstimateLine(positions, wrapped, Config{}); !errors.Is(err, core.ErrBadLambda) {
		t.Errorf("zero lambda: err = %v, want ErrBadLambda", err)
	}
	if _, err := EstimateLine(positions[:5], wrapped[:5], Config{Lambda: lambda}); !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("short input: err = %v, want ErrTooFewSamples", err)
	}
	if _, err := EstimateLine(positions, wrapped[:50], Config{Lambda: lambda}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := EstimateLine(positions[:40], wrapped[:40],
		Config{Lambda: lambda, MinSamples: 64}); !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("below MinSamples: err = %v, want ErrTooFewSamples", err)
	}
}

func TestOffsetResidualRMSDiscriminates(t *testing.T) {
	lambda := rf.DefaultBand().Wavelength()
	center := geom.V3(0.07, 0.82, 0)
	const offset = 2.31
	positions, wrapped := lineScan(center, lambda, offset, 200)

	good := OffsetResidualRMS(positions, wrapped, center, offset, lambda)
	if !(good < 1e-9) {
		t.Errorf("exact model RMS = %v, want ~0", good)
	}
	// A wrong offset must score strictly worse; the residual is exactly the
	// offset error for a correct center.
	bad := OffsetResidualRMS(positions, wrapped, center, offset+0.5, lambda)
	if math.Abs(bad-0.5) > 1e-9 {
		t.Errorf("offset-perturbed RMS = %v, want 0.5", bad)
	}
	// A displaced center must also score worse.
	if worse := OffsetResidualRMS(positions, wrapped, center.Add(geom.V3(0, 0.1, 0)), offset, lambda); !(worse > good) {
		t.Errorf("center-perturbed RMS %v not worse than exact %v", worse, good)
	}
	if !math.IsNaN(OffsetResidualRMS(nil, nil, center, offset, lambda)) {
		t.Error("empty input did not return NaN")
	}
}

// simScan runs one simulated calibration scan of an antenna whose phase
// center sits 2–3 cm off its mount, 0.8 m in front of the tag track.
func simScan(t *testing.T, trj traject.Trajectory) (samples []sim.Sample, truth geom.Vec3, lambda float64) {
	t.Helper()
	env, err := sim.NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	reader, err := sim.NewReader(env, sim.ReaderConfig{RateHz: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ant := &sim.Antenna{
		ID:                "A1",
		PhysicalCenter:    geom.V3(0, 0.8, 0),
		PhaseCenterOffset: geom.V3(0.02, -0.015, 0.025),
		PhaseOffset:       2.74,
	}
	samples, err = reader.Scan(ant, &sim.Tag{ID: "T1", PhaseOffset: 0.4}, trj)
	if err != nil {
		t.Fatal(err)
	}
	return samples, ant.PhaseCenter(), env.Wavelength()
}

// TestEstimateModes runs every scan mode, adaptive and not, on the scan it
// is meant for and checks the center lands near the true phase center. A
// line or planar scan cannot see the out-of-plane z offset, so those modes
// are judged in the plane of the scan.
func TestEstimateModes(t *testing.T) {
	line, err := traject.NewLinear(geom.V3(-0.6, 0, 0), geom.V3(0.6, 0, 0), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	two, err := traject.NewTwoLineScan(-0.6, 0.6, 0.2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	three, err := traject.NewThreeLineScan(traject.ThreeLineConfig{
		XMin: -0.6, XMax: 0.6, YSpacing: 0.2, ZSpacing: 0.2, Speed: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	circle, err := traject.NewCircularXY(geom.V3(0, 0, 0), 0.3, 0.1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mode string
		trj  traject.Trajectory
		in2D bool
		tol  float64
	}{
		{ModeLine, line, true, 0.02},
		{ModeTwoLine, two, false, 0.03},
		{ModeThreeLine, three, false, 0.03},
		{ModePlanar, circle, true, 0.03},
	} {
		samples, truth, lambda := simScan(t, tc.trj)
		for _, adaptive := range []bool{false, true} {
			res, err := Estimate(tc.mode, sim.Positions(samples), sim.Phases(samples), sim.Segments(samples), Config{
				Lambda: lambda, Smooth: 9, ScanRange: 0.8, PositiveSide: true, Adaptive: adaptive,
			})
			if err != nil {
				t.Fatalf("%s adaptive=%v: %v", tc.mode, adaptive, err)
			}
			d := res.Center.Dist(truth)
			if tc.in2D {
				d = res.Center.XY().Dist(truth.XY())
			}
			if d > tc.tol {
				t.Errorf("%s adaptive=%v: center %v is %.4f m from truth %v", tc.mode, adaptive, res.Center, d, truth)
			}
			if res.Samples != len(samples) || !(res.RMS < 0.5) {
				t.Errorf("%s adaptive=%v: Samples = %d, RMS = %v", tc.mode, adaptive, res.Samples, res.RMS)
			}
		}
	}
}

func TestEstimateRejectsBadInput(t *testing.T) {
	lambda := rf.DefaultBand().Wavelength()
	positions, wrapped := lineScan(geom.V3(0, 0.8, 0), lambda, 1, 100)
	if _, err := Estimate("bogus", positions, wrapped, nil, Config{Lambda: lambda}); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := Estimate(ModeLine, positions, wrapped, nil, Config{}); !errors.Is(err, core.ErrBadLambda) {
		t.Errorf("zero lambda: err = %v, want ErrBadLambda", err)
	}
	for _, mode := range []string{ModeTwoLine, ModeThreeLine} {
		if _, err := Estimate(mode, positions, wrapped, make([]int, 10), Config{Lambda: lambda}); err == nil {
			t.Errorf("%s: 10 labels for %d samples accepted", mode, len(positions))
		}
	}
}

// fuzzScan builds a synthetic scan for mode: n samples in scan order over
// lines of the given span (line), two lines yo apart (twoline), three lines
// with L2 zo above and L3 yo behind L1 (threeline), or a circle of diameter
// span (planar). Phases follow Eq. 2 exactly for an antenna at ant and are
// wrapped; the jumps between lines are left for the unwrapper.
func fuzzScan(mode string, n int, span, yo, zo float64, ant geom.Vec3, offset, lambda float64) ([]geom.Vec3, []float64, []int) {
	lines := map[string]int{ModeLine: 1, ModeTwoLine: 2, ModeThreeLine: 3, ModePlanar: 1}[mode]
	positions := make([]geom.Vec3, n)
	wrapped := make([]float64, n)
	labels := make([]int, n)
	for line := 0; line < lines; line++ {
		lo, hi := line*n/lines, (line+1)*n/lines
		for i := lo; i < hi; i++ {
			f := 0.0
			if hi-lo > 1 {
				f = float64(i-lo) / float64(hi-lo-1)
			}
			p := geom.V3(span*(f-0.5), 0, 0)
			switch {
			case mode == ModePlanar:
				a := 2 * math.Pi * float64(i) / float64(n)
				p = geom.V3(span/2*math.Cos(a), span/2*math.Sin(a), 0)
			case line == 1 && mode == ModeTwoLine:
				p.Y = yo
			case line == 1:
				p.Z = zo
			case line == 2:
				p.Y = yo
			}
			positions[i] = p
			labels[i] = traject.LineL1 + line
			wrapped[i] = rf.WrapPhase(rf.PhaseOfDistance(ant.Dist(p), lambda) + offset)
		}
	}
	return positions, wrapped, labels
}

// FuzzCalibEstimate: whatever the scan, Estimate returns an error or a
// finite calibration — never a NaN or infinite center, offset or RMS.
func FuzzCalibEstimate(f *testing.F) {
	// mode, adaptive, samples, span, yo, zo, antenna x/y/z, offset, interval, scan range
	f.Add(uint8(2), true, uint16(300), 1.2, 0.2, 0.2, 0.02, 0.8, 0.1, 2.74, 0.2, 0.8)
	f.Add(uint8(0), true, uint16(200), 1.2, 0.0, 0.0, 0.02, 0.8, 0.0, 1.0, 0.0, 0.0)
	f.Add(uint8(1), false, uint16(200), 1.0, 0.2, 0.0, 0.0, 0.8, 0.2, 3.0, 0.2, 0.8)
	f.Add(uint8(3), false, uint16(120), 0.6, 0.0, 0.0, 0.1, 0.7, 0.3, 0.5, 0.0, 0.0)
	// The two LocateThreeLine bugs: ten samples over three 15 cm lines
	// (no along-line pair, NaN x) and three coincident lines (NaN y and z).
	f.Add(uint8(2), false, uint16(2), 0.15, 0.2, 0.2, 0.02, 0.8, 0.1, 1.0, 0.2, 0.0)
	f.Add(uint8(2), false, uint16(292), 1.2, 0.0, 0.0, 0.02, 0.8, 0.1, 1.0, 0.2, 0.8)
	modes := []string{ModeLine, ModeTwoLine, ModeThreeLine, ModePlanar}
	f.Fuzz(func(t *testing.T, mode uint8, adaptive bool, samples uint16, span, yo, zo, ax, ay, az, offset, interval, scanRange float64) {
		for _, v := range []float64{span, yo, zo, ax, ay, az, offset, interval, scanRange} {
			// Bound the geometry: the structured grids scale with the
			// scan extent over a 5 mm step.
			if !(math.Abs(v) <= 10) {
				t.Skip()
			}
		}
		n := 8 + int(samples)%400
		m := modes[int(mode)%len(modes)]
		lambda := rf.DefaultBand().Wavelength()
		positions, wrapped, labels := fuzzScan(m, n, span, yo, zo, geom.V3(ax, ay, az), offset, lambda)
		cfg := Config{Lambda: lambda, ScanRange: scanRange, PositiveSide: true, Adaptive: adaptive}
		if interval != 0 {
			cfg.Intervals = []float64{interval}
		}
		res, err := Estimate(m, positions, wrapped, labels, cfg)
		if err != nil {
			return
		}
		if !res.Center.IsFinite() || !isFinite(res.Offset) || !isFinite(res.RMS) {
			t.Fatalf("%s adaptive=%v n=%d: non-finite result %+v with nil error", m, adaptive, n, res)
		}
	})
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
