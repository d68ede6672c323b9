package mat

// ConditionEst returns a cheap order-of-magnitude estimate of the 2-norm
// condition number κ₂(A) of a tall matrix A, from the Cholesky factor of its
// Gram matrix: with AᵀA = L·Lᵀ,
//
//	κ₂(A) = √κ₂(AᵀA) ≥ max_i L_ii / min_i L_ii.
//
// The diagonal ratio is a standard lower-bound estimate — exact for diagonal
// systems, within a small factor for the well-scaled tall-skinny systems
// LION builds — at the cost of one Gram product, far cheaper than an SVD.
// It returns +Inf when the Gram matrix is not numerically SPD (a
// rank-deficient system) and 1 for empty input.
func ConditionEst(a *Dense) float64 {
	var ws Workspace
	return ws.ConditionEst(a)
}
