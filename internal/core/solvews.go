package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/mat"
	"github.com/rfid-lion/lion/internal/stats"
)

// SolveWorkspace is the caller-owned scratch for SolveSystemInto. One
// workspace serves any number of sequential solves; after the first call
// sizes the buffers, a steady stream of same-shaped systems solves with
// zero heap allocations. A workspace must not be shared between goroutines
// without external serialization — stream sessions own one each.
//
// The zero value is ready to use.
type SolveWorkspace struct {
	ls      mat.Workspace
	reduced mat.Dense
	keep    []int
	x       []float64 // current iterate (owned copy, survives ls scratch reuse)
	weights []float64
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// SolveSystemInto is the workspace form of SolveSystem: identical
// arithmetic, routed through ws scratch, with the result written into sol.
// The Solution's slices (Residuals, Weights, RefDistances) are owned by sol
// itself — they are appended into sol's existing backing arrays, never
// aliased to workspace scratch — so callers may retain or mutate a Solution
// freely without corrupting later solves that reuse the same workspace.
// SolveSystem delegates here, which keeps the two entry points bit-identical
// by construction.
func SolveSystemInto(ws *SolveWorkspace, sys *System, opts SolveOptions, sol *Solution) error {
	defer opts.Trace.Span(opts.traceSpan())()
	numRefs := sys.NumRefs
	if numRefs <= 0 {
		numRefs = 1
	}
	nCols := sys.Dim + numRefs
	if sys.A.Cols() != nCols {
		return fmt.Errorf("core: system has %d columns, want %d: %w",
			sys.A.Cols(), nCols, mat.ErrShape)
	}
	rows := sys.A.Rows()

	// Detect zero coordinate columns relative to the matrix scale.
	scale := sys.A.MaxAbs()
	if scale == 0 {
		return ErrDegenerateGeometry
	}
	tol := 1e-9 * scale
	ws.keep = ws.keep[:0]
	known := [3]bool{}
	for c := 0; c < sys.Dim; c++ {
		colMax := 0.0
		for r := 0; r < rows; r++ {
			if v := math.Abs(sys.A.At(r, c)); v > colMax {
				colMax = v
			}
		}
		if colMax > tol {
			ws.keep = append(ws.keep, c)
			known[c] = true
		}
	}
	if len(ws.keep) == 0 {
		return ErrDegenerateGeometry
	}
	for r := 0; r < numRefs; r++ {
		ws.keep = append(ws.keep, sys.Dim+r) // reference-distance columns always kept
	}

	a := sys.A
	if len(ws.keep) != nCols {
		ws.reduced.Reshape(rows, len(ws.keep))
		for r := 0; r < rows; r++ {
			for ci, c := range ws.keep {
				ws.reduced.Set(r, ci, sys.A.At(r, c))
			}
		}
		a = &ws.reduced
	}

	if rows < len(ws.keep) {
		return ErrTooFewObservations
	}

	// One condition estimate per solve, on the unweighted reduced system,
	// read off the initial solve's Cholesky factor — enough to flag
	// near-degenerate geometry in both the Solution and every iteration's
	// trace event.
	x0, condEst, err := ws.ls.LeastSquaresCond(a, sys.K)
	if err != nil {
		return leastSquaresErr(err)
	}
	// x0 aliases ls scratch that the IRLS calls below overwrite; keep the
	// iterate in workspace-owned storage.
	ws.x = append(ws.x[:0], x0...)

	ws.weights = onesInto(ws.weights, rows)
	iterations, err := irlsRefine(&ws.ls, a, sys.K, &ws.x, ws.weights, opts, condEst)
	if err != nil {
		return err
	}

	res, err := ws.ls.Residuals(a, ws.x, sys.K)
	if err != nil {
		return fmt.Errorf("residuals: %w", err)
	}

	fillSolution(sol, sys.Dim, numRefs, known, ws.keep, ws.x, res, ws.weights,
		iterations, condEst)
	return nil
}

// irlsRefine runs the IRWLS refinement of Eqs. 14–16 over the reduced
// system: weights exp(−d²/2) from standardised residuals, re-solve, repeat
// until the iterate moves less than the tolerance. xp points at the
// workspace-owned iterate and is updated in place (the slice may be
// re-appended); weights must be pre-initialised to ones and is overwritten.
// SolveSystemInto (which the batch line solve runs) and the incremental
// LineSession both route through this one loop, which is what keeps their
// IRLS arithmetic identical.
//
// One iteration makes three passes over the rows: the residuals with their
// mean, standard deviation and norm (mat.Workspace.ResidualStats), the
// Eq. 15 weights, and the fused weight check + AᵀWA + AᵀWb of the weighted
// solve.
func irlsRefine(ls *mat.Workspace, a *mat.Dense, k []float64, xp *[]float64,
	weights []float64, opts SolveOptions, condEst float64) (int, error) {
	iterations := 0
	if !opts.Weighted {
		return 0, nil
	}
	x := *xp
	defer func() { *xp = x }()
	for iterations < opts.maxIter() {
		res, sum, rerr := ls.ResidualStats(a, x, k)
		if rerr != nil {
			return iterations, fmt.Errorf("residuals: %w", rerr)
		}
		if sum.Std == 0 {
			break // exact fit: all weights stay 1
		}
		floorHits := 0
		for i, r := range res {
			d := (r - sum.Mean) / sum.Std
			weights[i] = math.Exp(-d * d / 2) // Eq. 15
			if weights[i] < WeightFloor {
				floorHits++
			}
		}
		xNew, werr := ls.WeightedLeastSquares(a, k, weights)
		if werr != nil {
			if errors.Is(werr, mat.ErrSingular) {
				return iterations, fmt.Errorf("%w: %v", ErrDegenerateGeometry, werr)
			}
			return iterations, fmt.Errorf("weighted least squares: %w", werr)
		}
		iterations++
		opts.Trace.IRLSIter(opts.traceSpan(), iterations, sum.Norm, floorHits, condEst)
		moved := 0.0
		for i := range x {
			if d := math.Abs(xNew[i] - x[i]); d > moved {
				moved = d
			}
		}
		x = append(x[:0], xNew...)
		if moved < opts.tol() {
			break
		}
	}
	return iterations, nil
}

// fillSolution populates sol from the reduced solve results, copying every
// slice into sol-owned backing storage. Shared by SolveSystemInto and the
// incremental line session so the scatter/summary arithmetic has exactly one
// definition.
func fillSolution(sol *Solution, dim, numRefs int, known [3]bool, keep []int,
	x, res, weights []float64, iterations int, condEst float64) {
	sol.Known = known
	sol.Dim = dim
	sol.Residuals = append(sol.Residuals[:0], res...)
	sol.Weights = append(sol.Weights[:0], weights...)
	sol.Iterations = iterations
	sol.FinalResidual = mat.Norm2(res)
	sol.ConditionEstimate = condEst

	// Scatter the reduced solution back onto (x, y, z, d_r...).
	coords := [3]float64{math.NaN(), math.NaN(), math.NaN()}
	sol.RefDistances = growFloats(sol.RefDistances, numRefs)
	for i := range sol.RefDistances {
		sol.RefDistances[i] = 0
	}
	for xi, c := range keep {
		if c >= dim {
			sol.RefDistances[c-dim] = x[xi]
		} else {
			coords[c] = x[xi]
		}
	}
	sol.RefDistance = sol.RefDistances[0]
	if dim == 2 {
		coords[2] = 0
	}
	sol.Position = geom.Vec3{X: coords[0], Y: coords[1], Z: coords[2]}

	var wSum, wrSum float64
	for i, r := range res {
		wSum += weights[i]
		wrSum += weights[i] * r
	}
	sol.MeanResidual = 0
	if wSum > 0 {
		sol.MeanResidual = wrSum / wSum
	}
	sol.MeanAbsResidual = stats.MeanAbs(res)
	sol.RMSResidual = stats.RMS(res)
}
