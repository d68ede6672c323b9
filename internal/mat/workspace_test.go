package mat

import (
	"math"
	"math/rand"
	"testing"

	"github.com/rfid-lion/lion/internal/stats"
)

// TestWorkspaceMatchesAllocatingPath checks the workspace solvers, and the
// package-level functions that run them, bit for bit against an independent
// reference built from the allocating Dense primitives: the explicit
// Aᵀ·diag(w)·A from T and Mul (Gram when unweighted), Aᵀ·(w∘b) from TMulVec,
// SolveCholesky with a SolveQR fallback, residuals from MulVec, and the
// Cholesky-diagonal ratio of Cholesky(Gram). This pins the fused
// normal-equation pass for every column count the solvers see (2 to 4).
func TestWorkspaceMatchesAllocatingPath(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var ws Workspace
	for trial := 0; trial < 50; trial++ {
		rows := 4 + rng.Intn(30)
		cols := 2 + rng.Intn(3)
		a := randomTallMatrix(rng, rows, cols)
		b := make([]float64, rows)
		w := make([]float64, rows)
		for i := range b {
			b[i] = rng.NormFloat64()
			w[i] = rng.Float64() + 1e-3
		}
		if trial%5 == 0 {
			// Exact zeros exercise the kernels' skips.
			a.Set(rng.Intn(rows), rng.Intn(cols), 0)
			b[rng.Intn(rows)] = 0
			w[rng.Intn(rows)] = 0
		}

		want := refLeastSquares(t, a, b, nil)
		for _, got := range [][]float64{mustSolve(t)(LeastSquares(a, b)), mustSolve(t)(ws.LeastSquares(a, b))} {
			requireBits(t, trial, "LeastSquares", got, want)
		}

		wantR := refResiduals(t, a, want, b)
		requireBits(t, trial, "Residuals", mustSolve(t)(Residuals(a, want, b)), wantR)
		// got aliases ws scratch that ws.Residuals does not touch; using it
		// as x here is the IRLS pattern the doc comment promises works.
		got := mustSolve(t)(ws.LeastSquares(a, b))
		requireBits(t, trial, "ws.Residuals", mustSolve(t)(ws.Residuals(a, got, b)), wantR)

		wantW := refLeastSquares(t, a, b, w)
		requireBits(t, trial, "WeightedLeastSquares", mustSolve(t)(WeightedLeastSquares(a, b, w)), wantW)
		requireBits(t, trial, "ws.WeightedLeastSquares", mustSolve(t)(ws.WeightedLeastSquares(a, b, w)), wantW)

		wantC := refConditionEst(a)
		if gotC := ConditionEst(a); gotC != wantC {
			t.Fatalf("trial %d: ConditionEst = %v, want %v", trial, gotC, wantC)
		}
		if gotC := ws.ConditionEst(a); gotC != wantC {
			t.Fatalf("trial %d: ws.ConditionEst = %v, want %v", trial, gotC, wantC)
		}
		x, cond, err := ws.LeastSquaresCond(a, b)
		if err != nil {
			t.Fatal(err)
		}
		requireBits(t, trial, "LeastSquaresCond", x, want)
		if cond != wantC {
			t.Fatalf("trial %d: LeastSquaresCond cond = %v, want %v", trial, cond, wantC)
		}

		// The fused residual pass must summarise exactly as the separate
		// passes it replaces do.
		res, sum, err := ws.ResidualStats(a, want, b)
		if err != nil {
			t.Fatal(err)
		}
		requireBits(t, trial, "ResidualStats", res, wantR)
		mean, std := stats.Mean(wantR), stats.StdDev(wantR)
		if sum.Mean != mean || sum.Std != std {
			t.Fatalf("trial %d: ResidualStats summary %+v, want mean %v std %v",
				trial, sum, mean, std)
		}
	}
}

// refLeastSquares solves the (weighted, when w is non-nil) least-squares
// problem through the explicit normal equations: Cholesky, then QR on the
// square-root-weighted system when the Gram matrix is not SPD.
func refLeastSquares(t *testing.T, a *Dense, b, w []float64) []float64 {
	t.Helper()
	gram := a.Gram()
	rhs, err := a.TMulVec(b)
	if err != nil {
		t.Fatal(err)
	}
	aw, bw := a.Clone(), append([]float64(nil), b...)
	if w != nil {
		wa, wb := a.Clone(), make([]float64, len(b))
		for i := 0; i < a.Rows(); i++ {
			for j := 0; j < a.Cols(); j++ {
				wa.Set(i, j, w[i]*a.At(i, j))
			}
			wb[i] = w[i] * b[i]
			s := math.Sqrt(w[i])
			for j := 0; j < a.Cols(); j++ {
				aw.Set(i, j, a.At(i, j)*s)
			}
			bw[i] = b[i] * s
		}
		if gram, err = wa.T().Mul(a); err != nil {
			t.Fatal(err)
		}
		if rhs, err = a.TMulVec(wb); err != nil {
			t.Fatal(err)
		}
	}
	if x, err := SolveCholesky(gram, rhs); err == nil {
		return x
	}
	x, err := SolveQR(aw, bw)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// refResiduals is A·x − b from MulVec.
func refResiduals(t *testing.T, a *Dense, x, b []float64) []float64 {
	t.Helper()
	r, err := a.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r {
		r[i] -= b[i]
	}
	return r
}

// refConditionEst is max|L_ii| / min|L_ii| of Cholesky(AᵀA), +Inf when AᵀA
// is not SPD.
func refConditionEst(a *Dense) float64 {
	l, err := Cholesky(a.Gram())
	if err != nil {
		return math.Inf(1)
	}
	lo, hi := math.Inf(1), 0.0
	for i := 0; i < l.Rows(); i++ {
		d := math.Abs(l.At(i, i))
		lo, hi = math.Min(lo, d), math.Max(hi, d)
	}
	return hi / lo
}

// mustSolve unwraps a solver's (x, err) result, failing the test on err.
func mustSolve(t *testing.T) func([]float64, error) []float64 {
	return func(x []float64, err error) []float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
}

// requireBits fails unless got and want are equal bit for bit.
func requireBits(t *testing.T, trial int, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trial %d: %s has %d entries, want %d", trial, what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("trial %d: %s[%d] = %v, want %v bit for bit", trial, what, i, got[i], want[i])
		}
	}
}

// TestWorkspaceQRFallback drives the rank-deficient path: the Gram matrix of
// a matrix with duplicate columns is not SPD, so both the allocating and the
// workspace solvers must agree via the QR fallback (or agree on the error).
func TestWorkspaceQRFallback(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}})
	b := []float64{1, 2, 3, 4}
	var ws Workspace

	want, wantErr := LeastSquares(a, b)
	got, gotErr := ws.LeastSquares(a, b)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("fallback error mismatch: allocating %v, workspace %v", wantErr, gotErr)
	}
	if wantErr == nil && !vecAlmostEq(got, want, 0) {
		t.Fatalf("fallback solution = %v, want %v", got, want)
	}

	w := []float64{1, 2, 1, 2}
	wantW, wantErr := WeightedLeastSquares(a, b, w)
	gotW, gotErr := ws.WeightedLeastSquares(a, b, w)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("weighted fallback error mismatch: allocating %v, workspace %v", wantErr, gotErr)
	}
	if wantErr == nil && !vecAlmostEq(gotW, wantW, 0) {
		t.Fatalf("weighted fallback solution = %v, want %v", gotW, wantW)
	}

	if c := ws.ConditionEst(a); !math.IsInf(c, 1) {
		t.Fatalf("ConditionEst of rank-deficient system = %v, want +Inf", c)
	}
}

// TestWorkspaceShapeErrors mirrors the allocating solvers' validation.
func TestWorkspaceShapeErrors(t *testing.T) {
	var ws Workspace
	a := mustFromRows(t, [][]float64{{1, 0}, {0, 1}, {1, 1}})
	if _, err := ws.LeastSquares(a, []float64{1, 2}); err == nil {
		t.Error("LeastSquares with short b: want error")
	}
	if _, err := ws.LeastSquares(NewDense(2, 3), []float64{1, 2}); err == nil {
		t.Error("underdetermined system: want error")
	}
	if _, err := ws.WeightedLeastSquares(a, []float64{1, 2, 3}, []float64{1, -1, 1}); err == nil {
		t.Error("negative weight: want error")
	}
	if _, err := ws.WeightedLeastSquares(a, []float64{1, 2, 3}, []float64{1, 1}); err == nil {
		t.Error("short weights: want error")
	}
	if _, err := ws.Residuals(a, []float64{1}, []float64{1, 2, 3}); err == nil {
		t.Error("short x: want error")
	}
}

// TestWorkspaceSteadyStateZeroAllocs enforces the zero-allocation contract:
// after the first (warm-up) call sizes the scratch, repeated solves of
// same-shaped systems must not touch the heap.
func TestWorkspaceSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomTallMatrix(rng, 24, 3)
	b := make([]float64, 24)
	w := make([]float64, 24)
	for i := range b {
		b[i] = rng.NormFloat64()
		w[i] = 1
	}
	var ws Workspace
	if _, err := ws.LeastSquares(a, b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		x, err := ws.LeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ws.Residuals(a, x, b); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ws.ResidualStats(a, x, b); err != nil {
			t.Fatal(err)
		}
		if _, err := ws.WeightedLeastSquares(a, b, w); err != nil {
			t.Fatal(err)
		}
		ws.ConditionEst(a)
	})
	if allocs != 0 {
		t.Errorf("steady-state workspace solve allocates %.1f times per run, want 0", allocs)
	}
}

// TestWorkspaceScratchReuseAcrossShapes checks that a workspace survives
// being used for systems of different shapes back to back.
func TestWorkspaceScratchReuseAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ws Workspace
	for _, shape := range [][2]int{{8, 2}, {30, 4}, {5, 3}, {8, 2}} {
		a := randomTallMatrix(rng, shape[0], shape[1])
		b := make([]float64, shape[0])
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want, err := LeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ws.LeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !vecAlmostEq(got, want, 0) {
			t.Fatalf("shape %v: ws solve = %v, want %v", shape, got, want)
		}
	}
}

// TestDenseReshape covers the in-place resize used by all scratch matrices.
func TestDenseReshape(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	data := m.data
	m.Reshape(2, 2)
	if &m.data[0] != &data[0] {
		t.Error("same-size Reshape reallocated backing array")
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("Reshape left entry (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
	m.Reshape(1, 2)
	if &m.data[0] != &data[0] {
		t.Error("shrinking Reshape reallocated backing array")
	}
	m.Reshape(4, 4)
	if m.Rows() != 4 || m.Cols() != 4 {
		t.Fatalf("Reshape dims = %dx%d, want 4x4", m.Rows(), m.Cols())
	}
	var zero Dense
	zero.Reshape(2, 3)
	if zero.Rows() != 2 || zero.Cols() != 3 {
		t.Error("zero-value Dense did not Reshape")
	}
	defer func() {
		if recover() == nil {
			t.Error("Reshape(0, 1) did not panic")
		}
	}()
	m.Reshape(0, 1)
}
