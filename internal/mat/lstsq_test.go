package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func randomTallMatrix(rng *rand.Rand, rows, cols int) *Dense {
	a := NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	return a
}

func TestQRFactorReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomTallMatrix(rng, 8, 4)
	f, err := FactorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	r := f.R()
	// R must be upper triangular.
	for i := 0; i < 4; i++ {
		for j := 0; j < i; j++ {
			if r.At(i, j) != 0 {
				t.Errorf("R not upper triangular at (%d,%d)", i, j)
			}
		}
	}
	// Solving with an exact RHS reproduces the solution.
	want := []float64{1, -2, 0.5, 3}
	b, err := a.MulVec(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(got, want, 1e-9) {
		t.Errorf("QR solve = %v, want %v", got, want)
	}
}

func TestQRShapeAndRankErrors(t *testing.T) {
	if _, err := FactorQR(NewDense(2, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("wide matrix err = %v", err)
	}
	// Rank-deficient: two identical columns.
	a := mustFromRows(t, [][]float64{{1, 1}, {2, 2}, {3, 3}})
	f, err := FactorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Errorf("rank-deficient err = %v", err)
	}
	if _, err := f.Solve([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("rhs shape err = %v", err)
	}
}

func TestLeastSquaresExactSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		rows := 5 + rng.Intn(30)
		cols := 1 + rng.Intn(4)
		a := randomTallMatrix(rng, rows, cols)
		want := make([]float64, cols)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b, err := a.MulVec(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := LeastSquares(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !vecAlmostEq(got, want, 1e-7) {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
	}
}

func TestLeastSquaresMinimisesResidual(t *testing.T) {
	// Overdetermined inconsistent system: fit y = c0 + c1·x to noisy data.
	a := mustFromRows(t, [][]float64{
		{1, 0}, {1, 1}, {1, 2}, {1, 3},
	})
	b := []float64{0.1, 1.1, 1.9, 3.1}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Residuals(a, x, b)
	if err != nil {
		t.Fatal(err)
	}
	base := Norm2(r)
	// Perturbing the solution in any direction must not decrease the
	// residual norm.
	for _, d := range [][]float64{{1e-3, 0}, {-1e-3, 0}, {0, 1e-3}, {0, -1e-3}} {
		xp := []float64{x[0] + d[0], x[1] + d[1]}
		rp, err := Residuals(a, xp, b)
		if err != nil {
			t.Fatal(err)
		}
		if rn := Norm2(rp); rn < base-1e-12 {
			t.Errorf("perturbation %v decreased residual: %v < %v", d, rn, base)
		}
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	a := NewDense(2, 3)
	if _, err := LeastSquares(a, []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Errorf("underdetermined err = %v", err)
	}
	sq := Identity(2)
	if _, err := LeastSquares(sq, []float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("rhs mismatch err = %v", err)
	}
}

func TestLeastSquaresRankDeficientFallsBack(t *testing.T) {
	// Columns identical: Cholesky on the Gram matrix must fail; the QR
	// fallback then reports ErrSingular.
	a := mustFromRows(t, [][]float64{{1, 1}, {2, 2}, {3, 3}})
	if _, err := LeastSquares(a, []float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestWeightedLeastSquaresMatchesOrdinaryWithUnitWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := randomTallMatrix(rng, 20, 3)
	b := make([]float64, 20)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	w := make([]float64, 20)
	for i := range w {
		w[i] = 1
	}
	x1, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := WeightedLeastSquares(a, b, w)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(x1, x2, 1e-9) {
		t.Errorf("unit-weight WLS %v != OLS %v", x2, x1)
	}
}

func TestWeightedLeastSquaresDownweightsOutlier(t *testing.T) {
	// Fit a constant to data with one gross outlier. With the outlier
	// weighted to (almost) zero, the estimate must approach the clean mean.
	a := mustFromRows(t, [][]float64{{1}, {1}, {1}, {1}})
	b := []float64{1, 1, 1, 100}
	w := []float64{1, 1, 1, 1e-9}
	x, err := WeightedLeastSquares(a, b, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-4 {
		t.Errorf("weighted estimate = %v, want ~1", x[0])
	}
	// Zero weights are allowed and ignore the row entirely.
	w[3] = 0
	x, err = WeightedLeastSquares(a, b, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 {
		t.Errorf("zero-weight estimate = %v, want 1", x[0])
	}
}

func TestWeightedLeastSquaresErrors(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1}, {1}})
	if _, err := WeightedLeastSquares(a, []float64{1}, []float64{1, 1}); !errors.Is(err, ErrShape) {
		t.Errorf("rhs shape err = %v", err)
	}
	if _, err := WeightedLeastSquares(a, []float64{1, 1}, []float64{1, -1}); !errors.Is(err, ErrShape) {
		t.Errorf("negative weight err = %v", err)
	}
	if _, err := WeightedLeastSquares(a, []float64{1, 1}, []float64{1, math.NaN()}); !errors.Is(err, ErrShape) {
		t.Errorf("NaN weight err = %v", err)
	}
}

func TestResiduals(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 0}, {0, 1}})
	r, err := Residuals(a, []float64{2, 3}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(r, []float64{1, 2}, 0) {
		t.Errorf("Residuals = %v", r)
	}
	r, err = Residuals(a, []float64{2, 3}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := Norm2(r); math.Abs(n-math.Sqrt(5)) > 1e-12 {
		t.Errorf("Norm2 of Residuals = %v", n)
	}
	if _, err := Residuals(a, []float64{1, 2}, []float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("shape err = %v", err)
	}
}

func TestSolveQRAgreesWithLeastSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		a := randomTallMatrix(rng, 15, 3)
		b := make([]float64, 15)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x1, err := SolveQR(a, b)
		if err != nil {
			t.Fatal(err)
		}
		x2, err := LeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !vecAlmostEq(x1, x2, 1e-7) {
			t.Fatalf("trial %d: QR %v vs normal equations %v", trial, x1, x2)
		}
	}
}
