package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
)

// The solve boundary must reject malformed input with typed errors instead of
// letting NaN/Inf propagate silently through the WLS normal equations. One
// test per rejection path.

func finitePositions(n int) []geom.Vec3 {
	out := make([]geom.Vec3, n)
	for i := range out {
		out[i] = geom.V3(float64(i)*0.01, 0, 0)
	}
	return out
}

func TestPreprocessRejectsNaNPosition(t *testing.T) {
	pos := finitePositions(8)
	pos[3] = geom.V3(math.NaN(), 0, 0)
	_, err := Preprocess(pos, make([]float64, 8), 0)
	if !errors.Is(err, ErrNonFiniteInput) {
		t.Errorf("err = %v, want ErrNonFiniteInput", err)
	}
}

func TestPreprocessRejectsInfPosition(t *testing.T) {
	pos := finitePositions(8)
	pos[7] = geom.V3(0, math.Inf(-1), 0)
	_, err := Preprocess(pos, make([]float64, 8), 0)
	if !errors.Is(err, ErrNonFiniteInput) {
		t.Errorf("err = %v, want ErrNonFiniteInput", err)
	}
}

func TestPreprocessRejectsNaNPhase(t *testing.T) {
	phases := make([]float64, 8)
	phases[0] = math.NaN()
	_, err := Preprocess(finitePositions(8), phases, 0)
	if !errors.Is(err, ErrNonFiniteInput) {
		t.Errorf("err = %v, want ErrNonFiniteInput", err)
	}
}

func TestPreprocessRejectsInfPhase(t *testing.T) {
	phases := make([]float64, 8)
	phases[5] = math.Inf(1)
	_, err := Preprocess(finitePositions(8), phases, 0)
	if !errors.Is(err, ErrNonFiniteInput) {
		t.Errorf("err = %v, want ErrNonFiniteInput", err)
	}
}

func TestPreprocessRejectsMismatchedLengths(t *testing.T) {
	_, err := Preprocess(finitePositions(8), make([]float64, 7), 0)
	if !errors.Is(err, ErrTooFewObservations) {
		t.Errorf("err = %v, want ErrTooFewObservations", err)
	}
}

func TestNewProfileRejectsNonFiniteLambda(t *testing.T) {
	obs := []PosPhase{
		{Pos: geom.V3(0, 0, 0), Theta: 0},
		{Pos: geom.V3(0.1, 0, 0), Theta: 1},
	}
	for _, lambda := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.3} {
		if _, err := NewProfile(obs, lambda); !errors.Is(err, ErrBadLambda) {
			t.Errorf("lambda %v: err = %v, want ErrBadLambda", lambda, err)
		}
	}
}

func TestNewProfileRejectsNonFiniteObservation(t *testing.T) {
	cases := map[string][]PosPhase{
		"NaN theta": {
			{Pos: geom.V3(0, 0, 0), Theta: 0},
			{Pos: geom.V3(0.1, 0, 0), Theta: math.NaN()},
		},
		"Inf position": {
			{Pos: geom.V3(math.Inf(1), 0, 0), Theta: 0},
			{Pos: geom.V3(0.1, 0, 0), Theta: 1},
		},
	}
	for name, obs := range cases {
		if _, err := NewProfile(obs, 0.3257); !errors.Is(err, ErrNonFiniteInput) {
			t.Errorf("%s: err = %v, want ErrNonFiniteInput", name, err)
		}
	}
}

// TestLocatorsRejectNonFiniteObservations checks that the public locators
// refuse poisoned observation sets at the boundary rather than returning a
// NaN estimate.
func TestLocatorsRejectNonFiniteObservations(t *testing.T) {
	obs := make([]PosPhase, 16)
	for i := range obs {
		obs[i] = PosPhase{Pos: geom.V3(float64(i)*0.02, 0, 0), Theta: float64(i) * 0.1}
	}
	obs[9].Theta = math.NaN()
	lambda := 0.3257
	if _, err := Locate2D(obs, lambda, StridePairs(len(obs), 4), DefaultSolveOptions()); !errors.Is(err, ErrNonFiniteInput) {
		t.Errorf("Locate2D: err = %v, want ErrNonFiniteInput", err)
	}
	if _, err := Locate2DLineIntervals(obs, lambda, []float64{0.1}, true, DefaultSolveOptions()); !errors.Is(err, ErrNonFiniteInput) {
		t.Errorf("Locate2DLineIntervals: err = %v, want ErrNonFiniteInput", err)
	}
	if _, err := Locate3D(obs, lambda, StridePairs(len(obs), 4), DefaultSolveOptions()); !errors.Is(err, ErrNonFiniteInput) {
		t.Errorf("Locate3D: err = %v, want ErrNonFiniteInput", err)
	}
}

// TestNonFiniteRejectedOnEveryPath feeds a NaN position (first, middle and
// last sample) and a NaN or infinite phase through every way a window
// reaches the solver. PreprocessInto does not scan, so the streamed path
// (PreprocessInto, then the line solve) and a LineSession must still fail
// with ErrNonFiniteInput, from the line solve's single scan, and so must the
// line solve on raw observations whose first or last position is NaN (it
// used to fail earlier, on the line frame or the pairing, with another error).
func TestNonFiniteRejectedOnEveryPath(t *testing.T) {
	clean := lineStream(geom.V3(0.2, 0.9, 0), 80, 0, 1)
	positions := make([]geom.Vec3, len(clean))
	wrapped := make([]float64, len(clean))
	for i, o := range clean {
		positions[i], wrapped[i] = o.Pos, rf.WrapPhase(o.Theta)
	}
	type poisoned struct {
		name      string
		positions []geom.Vec3
		wrapped   []float64
	}
	var cases []poisoned
	for _, i := range []int{0, len(clean) / 3, len(clean) - 1} {
		pos := append([]geom.Vec3(nil), positions...)
		pos[i].X = math.NaN()
		cases = append(cases, poisoned{fmt.Sprintf("NaN position %d", i), pos, wrapped})
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ph := append([]float64(nil), wrapped...)
		ph[len(ph)/2] = v
		cases = append(cases, poisoned{fmt.Sprintf("phase %v", v), positions, ph})
	}
	opts := DefaultSolveOptions()
	session, err := NewLineSession(testLambda, lineTestIntervals, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		want := func(path string, err error) {
			t.Helper()
			if !errors.Is(err, ErrNonFiniteInput) {
				t.Errorf("%s, %s: err = %v, want ErrNonFiniteInput", c.name, path, err)
			}
		}
		_, err := Preprocess(c.positions, c.wrapped, 9)
		want("Preprocess", err)

		raw := make([]PosPhase, len(c.positions))
		for i := range raw {
			raw[i] = PosPhase{Pos: c.positions[i], Theta: c.wrapped[i]}
		}
		_, err = Locate2DLineIntervals(raw, testLambda, lineTestIntervals, true, opts)
		want("Locate2DLineIntervals on raw observations", err)
		_, err = NewProfileRef(raw, testLambda, 3)
		want("NewProfileRef", err)

		for _, smooth := range []int{0, 9} {
			var pre PreprocessBuffers
			win, err := PreprocessInto(&pre, c.positions, c.wrapped, smooth)
			if err != nil {
				t.Fatalf("%s: PreprocessInto: %v", c.name, err)
			}
			var ws LineWorkspace
			var sol Solution
			err = Locate2DLineIntervalsInto(&ws, win, testLambda, lineTestIntervals, true, opts, &sol)
			want(fmt.Sprintf("PreprocessInto (smooth %d) + line solve", smooth), err)
			want(fmt.Sprintf("PreprocessInto (smooth %d) + LineSession", smooth), session.Locate(win, opts, &sol))
		}
	}
	var sol Solution
	if err := session.Locate(clean, opts, &sol); err != nil {
		t.Errorf("clean window after rejected ones: %v", err)
	}
}
