package core

import (
	"errors"
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

// TestLineSessionRebuildMatchesBatch: the rebuild path (every first call) and
// Locate2DLineIntervals share assembly order, kernels, IRLS loop, and
// recovery arithmetic, so their Solutions must be bit-identical — not merely
// close.
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
		if st := s.Stats(); st.Rebuilds != 1 || st.Slides != 0 {
			t.Errorf("noise %v: stats = %+v, want 1 rebuild, 0 slides", noise, st)
		}
	}
}

// TestLineSessionSlideMatchesBatch drives a window sliding down a long scan
// and checks every incremental solve lands within the documented 1e-9 bound
// of the from-scratch batch solve, noiseless and noisy, including windows
// whose phases were re-unwrapped to a different 2π branch.
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
			tol := 1e-9 * math.Max(1, want.ConditionEstimate)
			if d := got.Position.Dist(want.Position); d > tol {
				t.Fatalf("noise %v lo %d: position %v vs batch %v (|Δ| = %.3g > %.3g)",
					noise, lo, got.Position, want.Position, d, tol)
			}
		}
		st := s.Stats()
		if st.Slides == 0 {
			t.Errorf("noise %v: no slides served incrementally (stats %+v)", noise, st)
		}
		if st.IncrementalUpdates == 0 {
			t.Errorf("noise %v: no incremental normal-equation updates (stats %+v)", noise, st)
		}
		// The anchor reference sample is evicted every window/(2·step) slides,
		// so both paths must have been exercised.
		if st.Rebuilds < 2 {
			t.Errorf("noise %v: rebuilds = %d, want ≥ 2 (ref eviction)", noise, st.Rebuilds)
		}
	}
}

// TestLineSessionSteadyStateZeroAllocs is the tentpole acceptance test at the
// core layer: a warmed session locating a slid window into a reused Solution
// must not allocate, on slide-served and rebuild-served calls alike.
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
			lo = 0 // wrap: the jump back is a disjoint window → rebuild path
		}
	}
	for i := 0; i < 30; i++ { // warm-up: size every buffer, cross a rebuild
		locate()
	}
	allocs := testing.AllocsPerRun(200, locate)
	if allocs != 0 {
		t.Errorf("steady-state Locate allocates %.1f times per run, want 0", allocs)
	}
	if st := s.Stats(); st.Slides == 0 || st.Rebuilds < 2 {
		t.Errorf("alloc run did not cover both paths: %+v", st)
	}
}

// TestLineSessionSolutionMutationIsolated is the ownership satellite: a
// Solution filled by one Locate call is caller-owned, so scribbling over
// every field and slice must not perturb the next solve — neither through the
// session that produced it nor through the shared workspace scratch.
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
// samples and then slides one sample at a time past several re-anchors, each
// window re-unwrapped from its own first sample as the stream engine does.
// Every slide must stay within the 1e-9·max(1, cond) bound of the batch
// solve. A pair exactly one interval long is where the anchor frame and the
// window's own frame round the separation differently, so the session must
// choose its pairs in the window's frame, as the batch solve does.
func TestLineSessionSlideMatchesBatchExactSpacing(t *testing.T) {
	const (
		minWin  = 128
		maxWin  = 256
		rebuild = 4 // the first build plus at least three re-anchors
	)
	ant := geom.V3(0.022, 0.782, 0)
	intervals := []float64{0.2}
	opts := DefaultSolveOptions()
	rng := stats.NewRNG(5)
	// Two conveyor lanes, both sampled along the belt exactly as
	// internal/sim reads a traject.Linear pass.
	for _, y := range []float64{0, 0.16875} {
		// A 3.6 m pass: 721 reads, long enough for the anchor reference
		// sample to be evicted four times.
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
			tol := 1e-9 * math.Max(1, want.ConditionEstimate)
			if d := got.Position.Dist(want.Position); d > tol {
				t.Fatalf("lane y=%v end %d (stats %+v): position %v vs batch %v (|Δ| = %.3g > %.3g)",
					y, end, s.Stats(), got.Position, want.Position, d, tol)
			}
		}
		if st := s.Stats(); st.Rebuilds < rebuild || st.Slides == 0 {
			t.Errorf("lane y=%v: stats %+v, want ≥ %d rebuilds and some slides", y, st, rebuild)
		}
	}
}

// TestLineSessionRebuildTriggers covers each documented re-anchor condition.
func TestLineSessionRebuildTriggers(t *testing.T) {
	ant := geom.V3(0.2, 0.9, 0)
	stream := lineStream(ant, 200, 0.01, 31)
	const window = 40
	opts := DefaultSolveOptions()

	t.Run("RebuildEvery", func(t *testing.T) {
		s, err := NewLineSession(testLambda, lineTestIntervals, true)
		if err != nil {
			t.Fatal(err)
		}
		s.RebuildEvery = 2
		var sol Solution
		for lo := 0; lo < 10; lo++ {
			if err := s.Locate(stream[lo:lo+window], opts, &sol); err != nil {
				t.Fatal(err)
			}
		}
		if st := s.Stats(); st.Rebuilds < 4 {
			t.Errorf("RebuildEvery=2 over 10 solves: rebuilds = %d, want ≥ 4", st.Rebuilds)
		}
	})

	t.Run("RefEvicted", func(t *testing.T) {
		s, err := NewLineSession(testLambda, lineTestIntervals, true)
		if err != nil {
			t.Fatal(err)
		}
		var sol Solution
		if err := s.Locate(stream[:window], opts, &sol); err != nil {
			t.Fatal(err)
		}
		// Slide past the anchor reference sample (index window/2) in one hop
		// while keeping ≥2 samples of overlap.
		if err := s.Locate(stream[window/2+1:window/2+1+window], opts, &sol); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Rebuilds != 2 || st.Slides != 0 {
			t.Errorf("ref eviction: stats = %+v, want 2 rebuilds, 0 slides", st)
		}
	})

	t.Run("DisjointWindow", func(t *testing.T) {
		s, err := NewLineSession(testLambda, lineTestIntervals, true)
		if err != nil {
			t.Fatal(err)
		}
		var sol Solution
		if err := s.Locate(stream[:window], opts, &sol); err != nil {
			t.Fatal(err)
		}
		if err := s.Locate(stream[120:120+window], opts, &sol); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Rebuilds != 2 {
			t.Errorf("disjoint window: rebuilds = %d, want 2", st.Rebuilds)
		}
	})

	t.Run("IncoherentOverlap", func(t *testing.T) {
		s, err := NewLineSession(testLambda, lineTestIntervals, true)
		if err != nil {
			t.Fatal(err)
		}
		var sol Solution
		if err := s.Locate(stream[:window], opts, &sol); err != nil {
			t.Fatal(err)
		}
		// Same positions, but the overlap phases were rewritten (e.g. a
		// smoothing window ran over the seam): not a pure slide.
		win := append([]PosPhase(nil), stream[2:2+window]...)
		for i := range win[:10] {
			win[i].Theta += 0.05 * float64(i)
		}
		if err := s.Locate(win, opts, &sol); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Rebuilds != 2 || st.Slides != 0 {
			t.Errorf("incoherent overlap: stats = %+v, want 2 rebuilds, 0 slides", st)
		}
		// And the rebuild must still match batch bit-for-bit.
		want, err := Locate2DLineIntervals(win, testLambda, lineTestIntervals, true, opts)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Position != want.Position {
			t.Errorf("post-rebuild position %v, want %v", sol.Position, want.Position)
		}
	})

	t.Run("NonFiniteAppend", func(t *testing.T) {
		s, err := NewLineSession(testLambda, lineTestIntervals, true)
		if err != nil {
			t.Fatal(err)
		}
		var sol Solution
		if err := s.Locate(stream[:window], opts, &sol); err != nil {
			t.Fatal(err)
		}
		win := append([]PosPhase(nil), stream[2:2+window]...)
		win[window-1].Theta = math.NaN()
		if err := s.Locate(win, opts, &sol); !errors.Is(err, ErrNonFiniteInput) {
			t.Fatalf("NaN append: err = %v, want ErrNonFiniteInput", err)
		}
		// The failed call must not have corrupted the session.
		if err := s.Locate(stream[2:2+window], opts, &sol); err != nil {
			t.Fatalf("solve after rejected input: %v", err)
		}
	})
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
	if err := s.Locate(stream, DefaultSolveOptions(), &sol); err != nil {
		t.Errorf("valid window after rejected ones: %v", err)
	}
}
