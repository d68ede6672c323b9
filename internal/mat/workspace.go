package mat

import (
	"fmt"
	"math"

	"github.com/rfid-lion/lion/internal/stats"
)

// Workspace is a caller-owned scratch arena for the small least-squares
// solves on LION's hot path. The package-level functions (LeastSquares,
// WeightedLeastSquares, Residuals, ConditionEst) run its methods on a
// throwaway workspace, so each kernel exists once and the two forms are
// bit-identical by construction; a kept workspace reuses all intermediate
// storage across calls. In steady state (stable problem dimensions) a
// workspace-based solve performs zero heap allocations.
//
// Ownership rules, unlike Dense methods:
//
//   - Returned slices ALIAS workspace scratch. They are valid only until the
//     next call of any method on the same Workspace; callers that need the
//     values longer must copy them out.
//   - A Workspace must not be shared between goroutines without external
//     serialization. The intended pattern is one Workspace per stream
//     session / worker.
//
// The zero value is ready to use; buffers grow on demand and are retained.
// The rare rank-deficient QR fallback still allocates (SolveQR); it is off
// the steady-state path by construction.
type Workspace struct {
	gram Dense     // AᵀA or AᵀWA (the solves fill only the lower triangle)
	chol Dense     // Cholesky factor scratch
	aw   Dense     // sqrt-weighted copy of A for the QR fallback
	x    []float64 // solution vector (returned, aliases scratch)
	y    []float64 // forward-substitution scratch
	rhs  []float64 // Aᵀb / AᵀWb scratch
	res  []float64 // residual vector (returned, aliases scratch)
	bw   []float64 // sqrt-weighted copy of b for the QR fallback
}

// grow returns s resized to length n, reusing capacity when possible. The
// contents are unspecified; callers must fully overwrite.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// LeastSquares is the ordinary least-squares solution of A·x = b via the
// normal equations with a Cholesky factorization, falling back to
// Householder QR when the Gram matrix is not numerically SPD; the
// package-level LeastSquares runs it on a throwaway workspace. The returned
// slice aliases workspace scratch and is valid until the next call on ws.
func (ws *Workspace) LeastSquares(a *Dense, b []float64) ([]float64, error) {
	x, _, err := ws.LeastSquaresCond(a, b)
	return x, err
}

// LeastSquaresCond is LeastSquares that also returns ConditionEst(a), read
// off the Cholesky factor the solve has already computed instead of forming
// the Gram matrix a second time. The estimate is +Inf when the solve fell
// back to QR.
func (ws *Workspace) LeastSquaresCond(a *Dense, b []float64) ([]float64, float64, error) {
	if a.Rows() != len(b) {
		return nil, 0, ErrShape
	}
	if a.Rows() < a.Cols() {
		return nil, 0, fmt.Errorf("underdetermined system %dx%d: %w",
			a.Rows(), a.Cols(), ErrShape)
	}
	if err := ws.normalEq(a, nil, b); err != nil {
		return nil, 0, err
	}
	if err := ws.factor(); err != nil {
		x, qerr := SolveQR(a, b)
		if qerr != nil {
			return nil, 0, qerr
		}
		ws.x = append(ws.x[:0], x...)
		return ws.x, math.Inf(1), nil
	}
	return ws.x, cholDiagRatio(&ws.chol), nil
}

// WeightedLeastSquares is X* = (AᵀWA)⁻¹AᵀWb with W = diag(w) (paper
// Eq. 16); the package-level WeightedLeastSquares runs it on a throwaway
// workspace. The weight check, AᵀWA and AᵀWb share one pass over the rows.
// The returned slice aliases workspace scratch and is valid until the next
// call on ws.
func (ws *Workspace) WeightedLeastSquares(a *Dense, b, w []float64) ([]float64, error) {
	if a.Rows() != len(b) || a.Rows() != len(w) {
		return nil, ErrShape
	}
	if err := ws.normalEq(a, w, b); err != nil {
		return nil, err
	}
	if err := ws.factor(); err != nil {
		// Fall back to QR on the square-root-weighted system:
		// minimise ‖√W·(A·x − b)‖.
		ws.aw.Reshape(a.Rows(), a.Cols())
		copy(ws.aw.data, a.data)
		ws.bw = grow(ws.bw, len(b))
		for i := 0; i < a.Rows(); i++ {
			s := math.Sqrt(w[i])
			for j := 0; j < a.Cols(); j++ {
				ws.aw.Set(i, j, ws.aw.At(i, j)*s)
			}
			ws.bw[i] = b[i] * s
		}
		x, qerr := SolveQR(&ws.aw, ws.bw)
		if qerr != nil {
			return nil, qerr
		}
		ws.x = append(ws.x[:0], x...)
		return ws.x, nil
	}
	return ws.x, nil
}

// normalEq accumulates the (weighted, when w is non-nil) normal equations
// of A·x = b into ws.gram and ws.rhs.
func (ws *Workspace) normalEq(a *Dense, w, b []float64) error {
	n := a.Cols()
	ws.gram.Reshape(n, n)
	ws.rhs = grow(ws.rhs, n)
	for i := range ws.rhs {
		ws.rhs[i] = 0
	}
	return a.normalEqInto(&ws.gram, ws.rhs, w, b)
}

// factor Cholesky-factors ws.gram into ws.chol and, when that succeeds,
// solves for ws.x against ws.rhs. It returns ErrNotSPD for the caller's QR
// fallback.
func (ws *Workspace) factor() error {
	n := ws.gram.Rows()
	ws.chol.Reshape(n, n)
	if err := choleskyInto(&ws.chol, &ws.gram); err != nil {
		return err
	}
	ws.x = grow(ws.x, n)
	ws.y = grow(ws.y, n)
	choleskySolveFactorInto(ws.x, ws.y, &ws.chol, ws.rhs)
	return nil
}

// Residuals is r = A·x − b in one pass over the rows; the package-level
// Residuals runs it on a throwaway workspace. The returned slice aliases
// workspace scratch and is valid until the next call on ws. x may alias a
// previous return from ws (the common IRLS pattern): res has dedicated
// scratch, never ws.x.
func (ws *Workspace) Residuals(a *Dense, x, b []float64) ([]float64, error) {
	if a.Cols() != len(x) || a.Rows() != len(b) {
		return nil, ErrShape
	}
	ws.res = grow(ws.res, a.Rows())
	for i := range ws.res {
		ws.res[i] = a.rowDot(i, x) - b[i]
	}
	return ws.res, nil
}

// ResidualSummary is what one IRLS iteration reads off its residual vector.
type ResidualSummary struct {
	// Mean and Std are the population mean and standard deviation, bit for
	// bit stats.MeanStd of the residuals.
	Mean, Std float64
	// Norm is ‖r‖₂, bit for bit Norm2 of the residuals.
	Norm float64
}

// ResidualStats is Residuals fused with its ResidualSummary: the residuals,
// their Welford mean and standard deviation and their sum of squares come
// out of one pass over the rows. The returned slice aliases workspace
// scratch like Residuals'.
func (ws *Workspace) ResidualStats(a *Dense, x, b []float64) ([]float64, ResidualSummary, error) {
	if a.Cols() != len(x) || a.Rows() != len(b) {
		return nil, ResidualSummary{}, ErrShape
	}
	ws.res = grow(ws.res, a.Rows())
	var acc stats.Welford
	var ss float64
	for i := range ws.res {
		r := a.rowDot(i, x) - b[i]
		ws.res[i] = r
		acc.Add(r)
		ss += r * r
	}
	var sum ResidualSummary
	sum.Mean, sum.Std = acc.MeanStd()
	sum.Norm = math.Sqrt(ss)
	return ws.res, sum, nil
}

// ConditionEst is the Cholesky-diagonal estimate of κ₂(A), +Inf when AᵀA is
// not numerically SPD, 1 for empty input; the package-level ConditionEst
// runs it on a throwaway workspace.
func (ws *Workspace) ConditionEst(a *Dense) float64 {
	if a.Rows() == 0 || a.Cols() == 0 {
		return 1
	}
	n := a.Cols()
	ws.gram.Reshape(n, n)
	a.gramInto(&ws.gram)
	ws.chol.Reshape(n, n)
	if err := choleskyInto(&ws.chol, &ws.gram); err != nil {
		return math.Inf(1)
	}
	return cholDiagRatio(&ws.chol)
}

// cholDiagRatio returns max|L_ii| / min|L_ii| for a Cholesky factor, the
// condition estimate of ConditionEst and LeastSquaresCond. It returns +Inf
// when the smallest diagonal entry is zero.
func cholDiagRatio(l *Dense) float64 {
	lo, hi := math.Inf(1), 0.0
	for i := 0; i < l.Rows(); i++ {
		d := math.Abs(l.At(i, i))
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if lo == 0 {
		return math.Inf(1)
	}
	return hi / lo
}
