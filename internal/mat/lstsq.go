package mat

// LeastSquares returns the ordinary least-squares solution of the
// overdetermined system A·x = b, i.e. X* = (AᵀA)⁻¹Aᵀb (paper Eq. 13).
//
// The solve goes through the normal equations with a Cholesky factorization,
// which is both the formulation the paper states and the fastest path for
// LION's tall-skinny systems. When the Gram matrix is not numerically SPD
// (rank-deficient geometry), it falls back to Householder QR on the original
// system for better numerical behaviour, and returns ErrSingular only when
// that fails too.
func LeastSquares(a *Dense, b []float64) ([]float64, error) {
	var ws Workspace
	return ws.LeastSquares(a, b)
}

// WeightedLeastSquares returns the weighted least-squares solution
// X* = (AᵀWA)⁻¹AᵀWb with W = diag(w) (paper Eq. 16). Weights must be
// non-negative; rows with zero weight are ignored. When AᵀWA is not
// numerically SPD it falls back to QR on the square-root-weighted system.
func WeightedLeastSquares(a *Dense, b, w []float64) ([]float64, error) {
	var ws Workspace
	return ws.WeightedLeastSquares(a, b, w)
}

// Residuals returns r = A·x − b.
func Residuals(a *Dense, x, b []float64) ([]float64, error) {
	var ws Workspace
	return ws.Residuals(a, x, b)
}
