package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/rfid-lion/lion/internal/mat"
	"github.com/rfid-lion/lion/internal/stats"
)

// lineFitSystem is a seeded straight-line fit k ≈ 0.5 + 2t over 40 rows
// [1, t], a third of them on the rival line −1 − 2t, where the re-weighting
// can swing between the two; every entry is scaled: A by
// 2^aExp and k by 2^kExp, so the solution is 2^(kExp−aExp) times the
// unscaled one. Power-of-two scales are exact, and as long as nothing
// underflows, every step of the refinement is the unscaled step, scaled.
func lineFitSystem(seed int64, aExp, kExp int) (*mat.Dense, []float64) {
	rng := stats.NewRNG(seed)
	const rows = 40
	a := mat.NewDense(rows, 2)
	k := make([]float64, rows)
	for i := range k {
		tv := rng.Uniform(-1, 1)
		v := 0.5 + 2*tv + rng.Normal(0, 0.05)
		if i%3 == 0 {
			v = -1 - 2*tv + rng.Normal(0, 0.05)
		}
		a.Set(i, 0, math.Ldexp(1, aExp))
		a.Set(i, 1, math.Ldexp(tv, aExp))
		k[i] = math.Ldexp(v, kExp)
	}
	return a, k
}

// plainIRLS runs n unaccelerated weighted solves x ← G(x) from the
// least-squares start, each with the Eq. 15 weights irlsRefine uses. It
// returns the last iterate and every solve's step ‖G(x) − x‖∞.
func plainIRLS(t *testing.T, a *mat.Dense, k []float64, n int) (x, steps []float64) {
	t.Helper()
	var ls mat.Workspace
	x0, err := ls.LeastSquares(a, k)
	if err != nil {
		t.Fatal(err)
	}
	x = append([]float64(nil), x0...)
	w := make([]float64, len(k))
	for it := 0; it < n; it++ {
		res, sum, err := ls.ResidualStats(a, x, k)
		if err != nil {
			t.Fatal(err)
		}
		inv := 1 / sum.Std
		for i, r := range res {
			d := (r - sum.Mean) * inv
			w[i] = math.Exp(-d * d / 2)
		}
		g, err := ls.WeightedLeastSquares(a, k, w)
		if err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for i := range x {
			s = math.Max(s, math.Abs(g[i]-x[i]))
		}
		steps = append(steps, s)
		copy(x, g)
	}
	return x, steps
}

// refine runs irlsRefine from the least-squares start with the given cap
// and a tolerance too small to stop it, returning the iterate and the
// weighted solves it counted.
func refine(t *testing.T, a *mat.Dense, k []float64, maxIter int) ([]float64, int) {
	t.Helper()
	var ws SolveWorkspace
	x0, err := ws.ls.LeastSquares(a, k)
	if err != nil {
		t.Fatal(err)
	}
	ws.x = append(ws.x[:0], x0...)
	ws.weights = onesInto(ws.weights, len(k))
	opts := SolveOptions{Weighted: true, MaxIterations: maxIter, Tolerance: 1e-300}
	iters, err := irlsRefine(&ws, a, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ws.x, iters
}

func bitsEqual(x, y []float64) bool {
	return slices.EqualFunc(x, y, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
}

// TestIRLSFallsBackToPlainSteps pins the two guards of irlsRefine's
// extrapolation. The first extrapolation can come only at the second
// solve's step, so a refinement capped at three solves returns the plain
// iteration's third iterate exactly when that step was a plain one.
func TestIRLSFallsBackToPlainSteps(t *testing.T) {
	t.Run("step does not shrink", func(t *testing.T) {
		for seed := int64(1); seed <= 200; seed++ {
			a, k := lineFitSystem(seed, 0, 0)
			want, steps := plainIRLS(t, a, k, 3)
			if steps[1] < steps[0] {
				continue // a shrinking step: extrapolation may apply
			}
			got, iters := refine(t, a, k, 3)
			if iters != 3 || !bitsEqual(got, want) {
				t.Fatalf("seed %d: step %.3g after %.3g did not shrink, yet irlsRefine gave %v after %d solves, plain %v",
					seed, steps[1], steps[0], got, iters, want)
			}
			return
		}
		t.Fatal("no seed in 1..200 gives a non-shrinking second step")
	})
	t.Run("zero step difference", func(t *testing.T) {
		// The solution is about 2^-550 ≈ 3e-166, so each step difference
		// Δf is below 1e-162 and Δf·Δf underflows to exactly 0.
		const aExp, kExp = 332, -218
		for seed := int64(1); seed <= 200; seed++ {
			a, k := lineFitSystem(seed, 0, 0)
			_, steps := plainIRLS(t, a, k, 10)
			if !(steps[1] < steps[0]) {
				continue // the Δf guard would not be reached
			}
			accelerated, _ := refine(t, a, k, 10)
			plain, _ := plainIRLS(t, a, k, 10)
			if bitsEqual(accelerated, plain) {
				t.Fatalf("seed %d: unscaled refinement never extrapolated", seed)
			}
			as, ks := lineFitSystem(seed, aExp, kExp)
			want, _ := plainIRLS(t, as, ks, 10)
			got, iters := refine(t, as, ks, 10)
			for _, v := range got {
				if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
					t.Fatalf("seed %d: scaled refinement gave %v", seed, got)
				}
			}
			if iters != 10 || !bitsEqual(got, want) {
				t.Fatalf("seed %d: Δf·Δf = 0, yet irlsRefine gave %v after %d solves, plain %v",
					seed, got, iters, want)
			}
			return
		}
		t.Fatal("no seed in 1..200 gives a shrinking second step")
	})
}

// TestSelectFloatIsSortOrderStatistic checks the median selection against
// a full sort, on lengths either side of the insertion-sort tail and on
// inputs full of ties.
func TestSelectFloatIsSortOrderStatistic(t *testing.T) {
	rng := stats.NewRNG(3)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(300)
		xs := make([]float64, n)
		levels := 1 + rng.Intn(n) // few levels: many ties
		for i := range xs {
			xs[i] = float64(rng.Intn(levels)) - float64(levels)/2
			if trial%2 == 1 {
				xs[i] = rng.Normal(0, 1)
			}
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		k := rng.Intn(n)
		selectFloat(xs, k)
		if xs[k] != sorted[k] {
			t.Fatalf("trial %d (n=%d): xs[%d] = %v, sort puts %v there", trial, n, k, xs[k], sorted[k])
		}
		for i, v := range xs {
			if (i < k && v > xs[k]) || (i > k && v < xs[k]) {
				t.Fatalf("trial %d (n=%d): xs[%d] = %v on the wrong side of xs[%d] = %v", trial, n, i, v, k, xs[k])
			}
		}
	}
}

// TestLineSystemIsBuildSystemsKeptColumns: the line solve writes the line
// frame's [α, ω] rows itself and enters SolveSystemInto past its column
// detection. Over every fourth golden window its Solution is, bit for bit,
// SolveSystemInto's on the [α, β, ω] system BuildSystem makes from the same
// line-frame profile and pairs.
func TestLineSystemIsBuildSystemsKeptColumns(t *testing.T) {
	opts := DefaultSolveOptions()
	var ws LineWorkspace
	var sws SolveWorkspace
	for i := 0; i < goldenCases; i += 4 {
		c := makeGoldenCase(i)
		var sol Solution
		// Fills ws.prof and ws.pairs, whatever the median recovery makes of
		// the solve.
		_ = Locate2DLineIntervalsInto(&ws, c.obs, testLambda, c.intervals, c.positive, opts, &sol)
		var direct, built Solution
		errD := ws.solveSystem(opts, &direct)
		sys, err := BuildSystem(&ws.prof, ws.pairs, 2)
		if err != nil {
			t.Fatalf("case %d (%s): %v", i, c.desc, err)
		}
		errB := SolveSystemInto(&sws, sys, opts, &built)
		if (errD == nil) != (errB == nil) || (errD != nil && errD.Error() != errB.Error()) {
			t.Fatalf("case %d (%s): direct error %v, BuildSystem error %v", i, c.desc, errD, errB)
		}
		if errD != nil {
			continue
		}
		numbers := func(s *Solution) []float64 {
			return append([]float64{s.Position.X, s.Position.Y, s.Position.Z, s.RefDistance,
				s.FinalResidual, s.MeanResidual, s.ConditionEstimate}, append(s.Residuals, s.Weights...)...)
		}
		if direct.Known != built.Known || direct.Iterations != built.Iterations ||
			!bitsEqual(numbers(&direct), numbers(&built)) {
			t.Fatalf("case %d (%s): direct solve %+v, BuildSystem's %+v", i, c.desc, direct, built)
		}
	}
}
