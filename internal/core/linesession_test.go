package core

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/stats"
	"github.com/rfid-lion/lion/internal/traject"
)

// lineStream generates a long straight-line scan past a target, the exact
// shape the streaming engine feeds to a sliding-window line solver.
func lineStream(ant geom.Vec3, n int, noiseStd float64, seed int64) []PosPhase {
	positions := linePositions(geom.V3(-1.5, 0, 0), geom.V3(1.5, 0, 0), n)
	return genObs(ant, positions, noiseStd, 0, stats.NewRNG(seed))
}

var lineTestIntervals = []float64{0.2, 0.5}

// TestLineSessionRebuildMatchesBatch: a session runs Locate2DLineIntervalsInto
// on its own workspace, so its Solution must be bit-identical to
// Locate2DLineIntervals — every field and slice, not merely close.
func TestLineSessionRebuildMatchesBatch(t *testing.T) {
	ant := geom.V3(0.2, 0.9, 0)
	for _, noise := range []float64{0, 0.05} {
		stream := lineStream(ant, 40, noise, 7)
		opts := DefaultSolveOptions()
		want, err := Locate2DLineIntervals(stream, testLambda, lineTestIntervals, true, opts)
		if err != nil {
			t.Fatalf("noise %v: batch: %v", noise, err)
		}
		s, err := NewLineSession(testLambda, lineTestIntervals, true)
		if err != nil {
			t.Fatal(err)
		}
		var got Solution
		if err := s.Locate(stream, opts, &got); err != nil {
			t.Fatalf("noise %v: session: %v", noise, err)
		}
		if got.Position != want.Position {
			t.Errorf("noise %v: Position = %v, want %v (bit-identical)", noise, got.Position, want.Position)
		}
		if got.RefDistance != want.RefDistance {
			t.Errorf("noise %v: RefDistance = %v, want %v", noise, got.RefDistance, want.RefDistance)
		}
		if got.Iterations != want.Iterations {
			t.Errorf("noise %v: Iterations = %d, want %d", noise, got.Iterations, want.Iterations)
		}
		if got.FinalResidual != want.FinalResidual {
			t.Errorf("noise %v: FinalResidual = %v, want %v", noise, got.FinalResidual, want.FinalResidual)
		}
		if got.ConditionEstimate != want.ConditionEstimate {
			t.Errorf("noise %v: ConditionEstimate = %v, want %v", noise, got.ConditionEstimate, want.ConditionEstimate)
		}
		if len(got.Residuals) != len(want.Residuals) {
			t.Fatalf("noise %v: %d residuals, want %d", noise, len(got.Residuals), len(want.Residuals))
		}
		for i := range want.Residuals {
			if got.Residuals[i] != want.Residuals[i] {
				t.Fatalf("noise %v: residual %d = %v, want %v", noise, i, got.Residuals[i], want.Residuals[i])
			}
			if got.Weights[i] != want.Weights[i] {
				t.Fatalf("noise %v: weight %d = %v, want %v", noise, i, got.Weights[i], want.Weights[i])
			}
		}
		if st := s.Stats(); st.Solves != 1 || st.Rebuilds != 1 {
			t.Errorf("noise %v: stats = %+v, want 1 solve, 1 rebuild", noise, st)
		}
	}
}

// TestLineSessionSlideMatchesBatch drives a window sliding down a long scan
// and checks every session solve is bit-identical to the batch solve,
// noiseless and noisy, including windows whose phases were re-unwrapped to a
// different 2π branch.
func TestLineSessionSlideMatchesBatch(t *testing.T) {
	ant := geom.V3(0.15, 0.8, 0)
	const window, step = 40, 2
	for _, noise := range []float64{0, 0.03} {
		stream := lineStream(ant, 160, noise, 11)
		opts := DefaultSolveOptions()
		s, err := NewLineSession(testLambda, lineTestIntervals, true)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(29)
		var got Solution
		windows := 0
		for lo := 0; lo+window <= len(stream); lo += step {
			win := append([]PosPhase(nil), stream[lo:lo+window]...)
			// Model the per-window unwrap: each window's profile can sit on
			// its own 2π branch without changing the solution.
			off := 2 * math.Pi * float64(rng.Intn(7)-3)
			for i := range win {
				win[i].Theta += off
			}
			if err := s.Locate(win, opts, &got); err != nil {
				t.Fatalf("noise %v lo %d: session: %v", noise, lo, err)
			}
			want, err := Locate2DLineIntervals(win, testLambda, lineTestIntervals, true, opts)
			if err != nil {
				t.Fatalf("noise %v lo %d: batch: %v", noise, lo, err)
			}
			if err := sameBits(&got, want); err != "" {
				t.Fatalf("noise %v lo %d: %s", noise, lo, err)
			}
			windows++
		}
		if st := s.Stats(); st.Solves != windows || st.Rebuilds != windows {
			t.Errorf("noise %v: stats %+v over %d windows", noise, st, windows)
		}
	}
}

// sameBits reports the first of Position, RefDistance, Iterations and
// FinalResidual whose bits differ between a session and a batch Solution,
// or "" when all four match.
func sameBits(got, want *Solution) string {
	switch {
	case got.Position != want.Position:
		return fmt.Sprintf("position %#v, batch %#v", got.Position, want.Position)
	case math.Float64bits(got.RefDistance) != math.Float64bits(want.RefDistance):
		return fmt.Sprintf("ref distance %v, batch %v", got.RefDistance, want.RefDistance)
	case got.Iterations != want.Iterations:
		return fmt.Sprintf("%d iterations, batch %d", got.Iterations, want.Iterations)
	case math.Float64bits(got.FinalResidual) != math.Float64bits(want.FinalResidual):
		return fmt.Sprintf("final residual %v, batch %v", got.FinalResidual, want.FinalResidual)
	}
	return ""
}

// TestLineSessionSteadyStateZeroAllocs: a warmed session locating a slid
// window into a reused Solution must not allocate.
func TestLineSessionSteadyStateZeroAllocs(t *testing.T) {
	ant := geom.V3(0.1, 0.85, 0)
	stream := lineStream(ant, 160, 0.02, 3)
	const window, step = 40, 2
	opts := DefaultSolveOptions()
	s, err := NewLineSession(testLambda, lineTestIntervals, true)
	if err != nil {
		t.Fatal(err)
	}
	var sol Solution
	lo := 0
	locate := func() {
		if err := s.Locate(stream[lo:lo+window], opts, &sol); err != nil {
			t.Fatal(err)
		}
		lo += step
		if lo+window > len(stream) {
			lo = 0
		}
	}
	for i := 0; i < 30; i++ { // warm-up: size every buffer
		locate()
	}
	allocs := testing.AllocsPerRun(200, locate)
	if allocs != 0 {
		t.Errorf("steady-state Locate allocates %.1f times per run, want 0", allocs)
	}
}

// TestLineSessionSolutionMutationIsolated: a Solution filled by one Locate
// call is caller-owned, so scribbling over every field and slice must not
// perturb the next solve — neither through the session that produced it nor
// through its workspace scratch.
func TestLineSessionSolutionMutationIsolated(t *testing.T) {
	ant := geom.V3(0.2, 0.9, 0)
	stream := lineStream(ant, 80, 0.02, 19)
	const window, step = 40, 2
	opts := DefaultSolveOptions()

	run := func(vandalise bool) []Solution {
		s, err := NewLineSession(testLambda, lineTestIntervals, true)
		if err != nil {
			t.Fatal(err)
		}
		var out []Solution
		var sol Solution
		for lo := 0; lo+window <= len(stream); lo += step {
			if err := s.Locate(stream[lo:lo+window], opts, &sol); err != nil {
				t.Fatal(err)
			}
			cp := sol
			cp.Residuals = append([]float64(nil), sol.Residuals...)
			cp.Weights = append([]float64(nil), sol.Weights...)
			cp.RefDistances = append([]float64(nil), sol.RefDistances...)
			out = append(out, cp)
			if vandalise {
				for i := range sol.Residuals {
					sol.Residuals[i] = math.NaN()
				}
				for i := range sol.Weights {
					sol.Weights[i] = -1
				}
				for i := range sol.RefDistances {
					sol.RefDistances[i] = math.Inf(1)
				}
				sol.Position = geom.V3(math.NaN(), math.NaN(), math.NaN())
				sol.RefDistance = math.NaN()
			}
		}
		return out
	}

	clean := run(false)
	dirty := run(true)
	if len(clean) != len(dirty) {
		t.Fatalf("%d vs %d solves", len(clean), len(dirty))
	}
	for i := range clean {
		if clean[i].Position != dirty[i].Position {
			t.Fatalf("solve %d: mutation changed position: %v vs %v",
				i, clean[i].Position, dirty[i].Position)
		}
		if clean[i].RefDistance != dirty[i].RefDistance {
			t.Fatalf("solve %d: mutation changed RefDistance", i)
		}
		for j := range clean[i].Residuals {
			if clean[i].Residuals[j] != dirty[i].Residuals[j] {
				t.Fatalf("solve %d: mutation changed residual %d", i, j)
			}
		}
	}
}

// TestLineSessionSlideMatchesBatchExactSpacing replays conveyor reads —
// 0.5 m/s at 100 Hz, so reads are exactly 5 mm apart and the 0.2 m interval
// is exactly 40 spacings — through a window that grows from 128 to 256
// samples and then slides one sample at a time, each window re-unwrapped from
// its own first sample as the stream engine does. Every solve must be
// bit-identical to the batch solve, including the windows where a pair sits
// exactly one interval apart.
func TestLineSessionSlideMatchesBatchExactSpacing(t *testing.T) {
	const (
		minWin = 128
		maxWin = 256
	)
	ant := geom.V3(0.022, 0.782, 0)
	intervals := []float64{0.2}
	opts := DefaultSolveOptions()
	rng := stats.NewRNG(5)
	// Two conveyor lanes, both sampled along the belt exactly as
	// internal/sim reads a traject.Linear pass.
	for _, y := range []float64{0, 0.16875} {
		// A 3.6 m pass: 721 reads.
		trj, err := traject.NewLinear(geom.V3(-1.8, y, 0), geom.V3(1.8, y, 0), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		n := int(trj.Duration()/(10*time.Millisecond)) + 1
		positions := make([]geom.Vec3, n)
		wrapped := make([]float64, n)
		for k := range positions {
			positions[k] = trj.Position(time.Duration(k) * 10 * time.Millisecond)
			th := rf.PhaseOfDistance(ant.Dist(positions[k]), testLambda) + rng.Normal(0, 0.1)
			wrapped[k] = rf.WrapPhase(th)
		}
		s, err := NewLineSession(testLambda, intervals, true)
		if err != nil {
			t.Fatal(err)
		}
		var got Solution
		var buf PreprocessBuffers
		for end := minWin; end <= n; end++ {
			lo := max(0, end-maxWin)
			win, err := PreprocessInto(&buf, positions[lo:end], wrapped[lo:end], 0)
			if err != nil {
				t.Fatal(err)
			}
			want, werr := Locate2DLineIntervals(win, testLambda, intervals, true, opts)
			gerr := s.Locate(win, opts, &got)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("lane y=%v end %d: session err %v, batch err %v", y, end, gerr, werr)
			}
			if werr != nil {
				continue
			}
			if err := sameBits(&got, want); err != "" {
				t.Fatalf("lane y=%v end %d: %s", y, end, err)
			}
		}
	}
}

// TestLineSessionValidation mirrors the batch entry point's input contract.
func TestLineSessionValidation(t *testing.T) {
	if _, err := NewLineSession(0, []float64{0.2}, true); !errors.Is(err, ErrBadLambda) {
		t.Errorf("zero lambda: err = %v", err)
	}
	if _, err := NewLineSession(testLambda, nil, true); err == nil {
		t.Error("no intervals accepted")
	}
	if _, err := NewLineSession(testLambda, []float64{0.2, -1}, true); err == nil {
		t.Error("negative interval accepted")
	}
	s, err := NewLineSession(testLambda, []float64{0.2}, true)
	if err != nil {
		t.Fatal(err)
	}
	var sol Solution
	ant := geom.V3(0.2, 0.9, 0)
	stream := lineStream(ant, 40, 0, 1)
	if err := s.Locate(stream[:3], DefaultSolveOptions(), &sol); !errors.Is(err, ErrTooFewObservations) {
		t.Errorf("3 observations: err = %v", err)
	}
	same := make([]PosPhase, 6)
	for i := range same {
		same[i] = PosPhase{Pos: geom.V3(1, 2, 0), Theta: 0}
	}
	if err := s.Locate(same, DefaultSolveOptions(), &sol); !errors.Is(err, ErrDegenerateGeometry) {
		t.Errorf("coincident observations: err = %v", err)
	}
	nan := append([]PosPhase(nil), stream...)
	nan[len(nan)-2].Theta = math.NaN()
	if err := s.Locate(nan, DefaultSolveOptions(), &sol); !errors.Is(err, ErrNonFiniteInput) {
		t.Errorf("NaN phase: err = %v", err)
	}
	if err := s.Locate(stream, DefaultSolveOptions(), &sol); err != nil {
		t.Errorf("valid window after rejected ones: %v", err)
	}
}
