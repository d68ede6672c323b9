package core

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"github.com/rfid-lion/lion/internal/batch"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/stats"
)

// genThreeLine synthesises a Fig. 11 scan for a target at ant: three
// parallel x-lines with the given spacings, all phases on one continuous
// unwrapped profile.
func genThreeLine(ant geom.Vec3, xMin, xMax, yo, zo float64, nPerLine int, noiseStd float64, rng *stats.RNG) ThreeLineInput {
	mkLine := func(y, z float64) []PosPhase {
		positions := make([]geom.Vec3, nPerLine)
		for i := range positions {
			x := xMin + (xMax-xMin)*float64(i)/float64(nPerLine-1)
			positions[i] = geom.V3(x, y, z)
		}
		return genObs(ant, positions, noiseStd, 0, rng)
	}
	return ThreeLineInput{
		L1:     mkLine(0, 0),
		L2:     mkLine(0, zo),
		L3:     mkLine(-yo, 0),
		Lambda: testLambda,
	}
}

func genTwoLine(ant geom.Vec3, xMin, xMax, yo float64, nPerLine int, noiseStd float64, rng *stats.RNG) TwoLineInput {
	mkLine := func(y float64) []PosPhase {
		positions := make([]geom.Vec3, nPerLine)
		for i := range positions {
			x := xMin + (xMax-xMin)*float64(i)/float64(nPerLine-1)
			positions[i] = geom.V3(x, y, 0)
		}
		return genObs(ant, positions, noiseStd, 0, rng)
	}
	return TwoLineInput{L1: mkLine(0), L2: mkLine(-yo), Lambda: testLambda}
}

func TestLocateThreeLineNoiseless(t *testing.T) {
	ant := geom.V3(0.05, 0.8, 0.1)
	in := genThreeLine(ant, -0.6, 0.6, 0.2, 0.2, 200, 0, nil)
	sol, err := LocateThreeLine(in, DefaultStructuredOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Position.Dist(ant); got > 1e-4 {
		t.Errorf("error %v m (got %v)", got, sol.Position)
	}
	if !sol.FullyKnown() {
		t.Error("three-line solve should determine all coordinates")
	}
}

// TestLocateThreeLineShortLinesError: lines shorter than the pairing
// interval give the grid no along-line pair, so the x column of the system
// is empty. The solve used to return a NaN x with a nil error.
func TestLocateThreeLineShortLinesError(t *testing.T) {
	ant := geom.V3(0.02, 0.8, 0.1)
	// Ten samples over three 15 cm lines: the grid spans 4 points at a
	// 4 cm step, and the 20 cm interval pairs none of them.
	in := genThreeLine(ant, -0.075, 0.075, 0.2, 0.2, 3, 0, nil)
	in.L1 = genObs(ant, []geom.Vec3{
		geom.V3(-0.075, 0, 0), geom.V3(-0.025, 0, 0), geom.V3(0.025, 0, 0), geom.V3(0.075, 0, 0),
	}, 0, 0, nil)
	sol, err := LocateThreeLine(in, StructuredOptions{Interval: 0.2, Solve: DefaultSolveOptions()})
	if !errors.Is(err, ErrTooFewObservations) {
		t.Fatalf("short lines: sol = %+v, err = %v; want ErrTooFewObservations", sol, err)
	}
}

// TestLocateThreeLineCoincidentLinesError: three lines at one y/z leave the
// y and z columns of the system zero. The solve used to return NaN y and z
// with a nil error.
func TestLocateThreeLineCoincidentLinesError(t *testing.T) {
	ant := geom.V3(0.02, 0.8, 0.1)
	in := genThreeLine(ant, -0.6, 0.6, 0, 0, 100, 0, nil)
	sol, err := LocateThreeLine(in, DefaultStructuredOptions())
	if !errors.Is(err, ErrDegenerateGeometry) {
		t.Fatalf("coincident lines: sol = %+v, err = %v; want ErrDegenerateGeometry", sol, err)
	}
}

func TestLocateThreeLineNoisy(t *testing.T) {
	rng := stats.NewRNG(5)
	ant := geom.V3(0, 0.8, 0.2)
	var errSum float64
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		in := genThreeLine(ant, -0.6, 0.6, 0.2, 0.2, 300, 0.1, rng)
		sol, err := LocateThreeLine(in, DefaultStructuredOptions())
		if err != nil {
			t.Fatal(err)
		}
		errSum += sol.Position.Dist(ant)
	}
	// The paper reports ~2.3 cm average 3-D error; allow generous slack.
	if avg := errSum / trials; avg > 0.05 {
		t.Errorf("average 3-D error %v m", avg)
	}
}

func TestLocateThreeLineValidation(t *testing.T) {
	ant := geom.V3(0, 0.8, 0)
	in := genThreeLine(ant, -0.5, 0.5, 0.2, 0.2, 100, 0, nil)
	bad := in
	bad.L1 = nil
	if _, err := LocateThreeLine(bad, DefaultStructuredOptions()); err == nil {
		t.Error("missing L1 accepted")
	}
	opts := DefaultStructuredOptions()
	opts.Interval = 0
	if _, err := LocateThreeLine(in, opts); err == nil {
		t.Error("zero interval accepted")
	}
	opts = DefaultStructuredOptions()
	opts.ScanRange = 0.01 // grid collapses
	if _, err := LocateThreeLine(in, opts); !errors.Is(err, ErrTooFewObservations) {
		t.Errorf("tiny range err = %v", err)
	}
}

func TestLocateTwoLineRecoversZ(t *testing.T) {
	ant := geom.V3(0, 0.7, 0.25)
	in := genTwoLine(ant, -0.5, 0.5, 0.2, 200, 0, nil)
	sol, err := LocateTwoLine(in, true, DefaultStructuredOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Position.Dist(ant); got > 1e-4 {
		t.Errorf("error %v m (got %v)", got, sol.Position)
	}
	// Below-plane branch mirrors z.
	sol2, err := LocateTwoLine(in, false, DefaultStructuredOptions())
	if err != nil {
		t.Fatal(err)
	}
	mirror := geom.V3(ant.X, ant.Y, -ant.Z)
	if got := sol2.Position.Dist(mirror); got > 1e-4 {
		t.Errorf("mirror error %v m (got %v)", got, sol2.Position)
	}
}

func TestLocateTwoLineDepthSensitivity(t *testing.T) {
	// Fig. 14a: with only Δy = 0.2 m of diversity, accuracy degrades as
	// depth grows. Verify the trend under noise.
	rng := stats.NewRNG(11)
	avgErr := func(depth float64) float64 {
		ant := geom.V3(0, depth, 0.2)
		var sum float64
		const trials = 8
		for i := 0; i < trials; i++ {
			in := genTwoLine(ant, -0.6, 0.6, 0.2, 240, 0.1, rng)
			sol, err := LocateTwoLine(in, true, DefaultStructuredOptions())
			if err != nil {
				t.Fatal(err)
			}
			sum += sol.Position.Dist(ant)
		}
		return sum / trials
	}
	near := avgErr(0.6)
	far := avgErr(1.4)
	if far < near {
		t.Errorf("error did not grow with depth: near %v, far %v", near, far)
	}
}

func TestAdaptiveThreeLineSelectsReasonableParams(t *testing.T) {
	rng := stats.NewRNG(17)
	ant := geom.V3(0, 0.8, 0.1)
	in := genThreeLine(ant, -0.6, 0.6, 0.2, 0.2, 300, 0.1, rng)
	res, err := AdaptiveLocateThreeLine(in,
		[]float64{0.6, 0.8, 1.0},
		[]float64{0.1, 0.2, 0.3},
		StructuredOptions{Solve: DefaultSolveOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) == 0 {
		t.Fatal("nothing selected")
	}
	if len(res.All) != 9 {
		t.Fatalf("sweep size = %d, want 9", len(res.All))
	}
	if got := res.Position.Dist(ant); got > 0.06 {
		t.Errorf("adaptive error %v m (got %v)", got, res.Position)
	}
}

func TestAdaptiveEmptySweeps(t *testing.T) {
	in := ThreeLineInput{Lambda: testLambda}
	if _, err := AdaptiveLocateThreeLine(in, nil, []float64{0.2}, StructuredOptions{}); !errors.Is(err, ErrNoCandidates) {
		t.Errorf("empty ranges err = %v", err)
	}
	if _, err := AdaptiveLocate2DLine(nil, testLambda, nil, true, SolveOptions{}); !errors.Is(err, ErrNoCandidates) {
		t.Errorf("empty intervals err = %v", err)
	}
}

// TestSweepReportsPanickingCandidate checks that a candidate whose solve
// panics stays in its own cell, with its range and interval and the
// recovered panic as its error, while its neighbours keep their solutions,
// at GOMAXPROCS 1 and 4.
func TestSweepReportsPanickingCandidate(t *testing.T) {
	specs := gridSpecs([]float64{0.6, 0.8}, []float64{0.15, 0.2, 0.25})
	const bad = 4 // range 0.8, interval 0.2
	eval := func(s gridSpec) (*Solution, error) {
		if s == specs[bad] {
			panic("singular candidate")
		}
		return &Solution{MeanResidual: s.scanRange * s.interval}, nil
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		cands := sweep(specs, eval)
		runtime.GOMAXPROCS(prev)
		if len(cands) != len(specs) {
			t.Fatalf("GOMAXPROCS %d: %d candidates, want %d", procs, len(cands), len(specs))
		}
		for i, c := range cands {
			if c.ScanRange != specs[i].scanRange || c.Interval != specs[i].interval {
				t.Errorf("GOMAXPROCS %d: cell %d = (%g, %g), want (%g, %g)",
					procs, i, c.ScanRange, c.Interval, specs[i].scanRange, specs[i].interval)
			}
			if i == bad {
				if !errors.Is(c.Err, batch.ErrPanic) || c.Solution != nil {
					t.Errorf("GOMAXPROCS %d: panicking cell = %+v, want nil solution and batch.ErrPanic", procs, c)
				}
				continue
			}
			if c.Err != nil || c.Solution == nil || c.Solution.MeanResidual != specs[i].scanRange*specs[i].interval {
				t.Errorf("GOMAXPROCS %d: healthy cell %d = %+v", procs, i, c)
			}
		}
	}
}

func TestSelectByResidual(t *testing.T) {
	mk := func(pos geom.Vec3, mr float64) Candidate {
		return Candidate{Solution: &Solution{Position: pos, MeanResidual: mr}}
	}
	cands := []Candidate{
		mk(geom.V3(1, 0, 0), 0.001),
		mk(geom.V3(1.1, 0, 0), 0.0012),
		mk(geom.V3(5, 5, 5), 0.5), // bad: excluded
		{Err: errors.New("boom")}, // failed: excluded
		{Solution: &Solution{Position: geom.V3(math.NaN(), 0, 0), MeanResidual: 0}}, // NaN: excluded
	}
	res, err := SelectByResidual(cands)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 2 {
		t.Fatalf("selected %d, want 2", len(res.Selected))
	}
	if got := res.Position.Dist(geom.V3(1.05, 0, 0)); got > 1e-9 {
		t.Errorf("averaged position = %v", res.Position)
	}
	if _, err := SelectByResidual([]Candidate{{Err: errors.New("x")}}); !errors.Is(err, ErrNoCandidates) {
		t.Errorf("all-failed err = %v", err)
	}
}

func TestAdaptiveLocate2DLine(t *testing.T) {
	rng := stats.NewRNG(23)
	ant := geom.V3(0.2, 1, 0)
	positions := make([]geom.Vec3, 200)
	for i := range positions {
		positions[i] = geom.V3(-0.5+float64(i)/199, 0, 0)
	}
	obs := genObs(ant, positions, 0.1, 0, rng)
	res, err := AdaptiveLocate2DLine(obs, testLambda,
		[]float64{0.1, 0.15, 0.2, 0.25, 0.3}, true, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Position.Dist(ant); got > 0.03 {
		t.Errorf("adaptive 2-D error %v m", got)
	}
}

func TestPhaseOffsetCalibration(t *testing.T) {
	center := geom.V3(0, 1, 0)
	const trueOffset = 3.98 // paper's A1 offset
	positions := []geom.Vec3{
		geom.V3(-0.3, 0, 0), geom.V3(0, 0, 0), geom.V3(0.3, 0, 0), geom.V3(0.1, 0.2, 0),
	}
	wrapped := make([]float64, len(positions))
	for i, p := range positions {
		wrapped[i] = rf.WrapPhase(rf.PhaseOfDistance(center.Dist(p), testLambda) + trueOffset)
	}
	got, err := PhaseOffset(positions, wrapped, center, testLambda)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rf.WrapPhaseSigned(got-trueOffset)) > 1e-9 {
		t.Errorf("offset = %v, want %v", got, rf.WrapPhase(trueOffset))
	}
}

func TestPhaseOffsetCircularMeanAcrossWrap(t *testing.T) {
	// Offsets straddling the 0/2π boundary break an arithmetic mean but not
	// a circular one.
	center := geom.V3(0, 1, 0)
	rng := stats.NewRNG(31)
	const trueOffset = 0.05
	n := 500
	positions := make([]geom.Vec3, n)
	wrapped := make([]float64, n)
	for i := range positions {
		positions[i] = geom.V3(rng.Uniform(-0.5, 0.5), 0, 0)
		noisy := rf.PhaseOfDistance(center.Dist(positions[i]), testLambda) +
			trueOffset + rng.Normal(0, 0.2)
		wrapped[i] = rf.WrapPhase(noisy)
	}
	got, err := PhaseOffset(positions, wrapped, center, testLambda)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rf.WrapPhaseSigned(got-trueOffset)) > 0.05 {
		t.Errorf("offset = %v, want ~%v", got, trueOffset)
	}
}

func TestPhaseOffsetValidation(t *testing.T) {
	if _, err := PhaseOffset(nil, nil, geom.Vec3{}, testLambda); !errors.Is(err, ErrNoSamples) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := PhaseOffset([]geom.Vec3{{}}, nil, geom.Vec3{}, testLambda); !errors.Is(err, ErrNoSamples) {
		t.Errorf("mismatch err = %v", err)
	}
	if _, err := PhaseOffset([]geom.Vec3{{}}, []float64{1}, geom.Vec3{}, 0); !errors.Is(err, ErrBadLambda) {
		t.Errorf("lambda err = %v", err)
	}
}

func TestApplyPhaseOffset(t *testing.T) {
	if got := ApplyPhaseOffset(1.0, 0.3); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("ApplyPhaseOffset = %v", got)
	}
	if got := ApplyPhaseOffset(0.1, 0.3); math.Abs(got-(2*math.Pi-0.2)) > 1e-12 {
		t.Errorf("wrapped ApplyPhaseOffset = %v", got)
	}
}

func TestCenterCalibration(t *testing.T) {
	c := CenterCalibration{
		AntennaID:       "A1",
		PhysicalCenter:  geom.V3(0, 0, 1),
		EstimatedCenter: geom.V3(0.02, -0.01, 1.02),
	}
	if got := c.Displacement(); got.Sub(geom.V3(0.02, -0.01, 0.02)).Norm() > 1e-12 {
		t.Errorf("Displacement = %v", got)
	}
	want := math.Sqrt(0.02*0.02 + 0.01*0.01 + 0.02*0.02)
	if got := c.DisplacementNorm(); math.Abs(got-want) > 1e-12 {
		t.Errorf("DisplacementNorm = %v", got)
	}
}

func TestFullCalibrationPipeline(t *testing.T) {
	// End-to-end: simulate an antenna whose phase center is displaced from
	// its physical center and whose hardware adds a constant offset. The
	// pipeline must recover both.
	rng := stats.NewRNG(41)
	physical := geom.V3(0, 0.8, 0)
	displacement := geom.V3(0.025, 0.01, -0.02)
	truePhaseCenter := physical.Add(displacement)
	const hwOffset = 2.74

	// Three-line scan with phases generated from the *true* phase center
	// plus the hardware offset.
	mkLine := func(y, z float64, n int) ([]geom.Vec3, []PosPhase) {
		positions := make([]geom.Vec3, n)
		for i := range positions {
			positions[i] = geom.V3(-0.6+1.2*float64(i)/float64(n-1), y, z)
		}
		obs := make([]PosPhase, n)
		for i, p := range positions {
			theta := rf.PhaseOfDistance(truePhaseCenter.Dist(p), testLambda) +
				hwOffset + rng.Normal(0, 0.05)
			obs[i] = PosPhase{Pos: p, Theta: theta}
		}
		return positions, obs
	}
	_, l1 := mkLine(0, 0, 300)
	_, l2 := mkLine(0, 0.2, 300)
	_, l3 := mkLine(-0.2, 0, 300)
	in := ThreeLineInput{L1: l1, L2: l2, L3: l3, Lambda: testLambda}
	sol, err := LocateThreeLine(in, DefaultStructuredOptions())
	if err != nil {
		t.Fatal(err)
	}
	calib := CenterCalibration{
		AntennaID:       "A1",
		PhysicalCenter:  physical,
		EstimatedCenter: sol.Position,
	}
	if got := calib.EstimatedCenter.Dist(truePhaseCenter); got > 0.03 {
		t.Errorf("estimated center off by %v m", got)
	}
	if got := calib.Displacement().Sub(displacement).Norm(); got > 0.03 {
		t.Errorf("displacement off by %v m", got)
	}
	// Offset calibration against the estimated center.
	positions := make([]geom.Vec3, 0, len(l1))
	wrapped := make([]float64, 0, len(l1))
	for _, o := range l1 {
		positions = append(positions, o.Pos)
		wrapped = append(wrapped, rf.WrapPhase(o.Theta))
	}
	offset, err := PhaseOffset(positions, wrapped, calib.EstimatedCenter, testLambda)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rf.WrapPhaseSigned(offset-hwOffset)) > 0.35 {
		t.Errorf("offset = %v, want ~%v", offset, hwOffset)
	}
}
