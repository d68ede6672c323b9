package mat

import (
	"math"
)

// Cholesky computes the lower-triangular factor L of a symmetric positive
// definite matrix A, such that A = L·Lᵀ. It returns ErrNotSPD when A is not
// (numerically) SPD.
func Cholesky(a *Dense) (*Dense, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, ErrShape
	}
	l := NewDense(n, n)
	if err := choleskyInto(l, a); err != nil {
		return nil, err
	}
	return l, nil
}

// choleskyInto factors A = L·Lᵀ into l, which must be n×n and zeroed (the
// strict upper triangle is left untouched). The column-by-column elimination
// order here is the reference order: Workspace routes through this kernel
// so scratch-reusing solves stay bit-identical to the allocating path.
func choleskyInto(l, a *Dense) error {
	n := a.Rows()
	for j := 0; j < n; j++ {
		var d float64 = a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotSPD
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return nil
}

// SolveCholesky solves A·x = b for SPD A via the Cholesky factorization.
func SolveCholesky(a *Dense, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return solveCholeskyFactor(l, b)
}

func solveCholeskyFactor(l *Dense, b []float64) ([]float64, error) {
	n := l.Rows()
	if len(b) != n {
		return nil, ErrShape
	}
	x := make([]float64, n)
	y := make([]float64, n)
	choleskySolveFactorInto(x, y, l, b)
	return x, nil
}

// choleskySolveFactorInto solves L·Lᵀ·x = b given the factor l, writing the
// solution into x and using y (same length) as forward-substitution scratch.
// x and b may not alias; y may alias neither.
func choleskySolveFactorInto(x, y []float64, l *Dense, b []float64) {
	n := l.Rows()
	// Forward substitution: L·y = b.
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Back substitution: Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
}
