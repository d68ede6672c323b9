package core

import (
	"fmt"
	"math"

	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/obs"
)

// WeightFloor is the IRWLS weight below which an equation is effectively
// discarded: exp(−d²/2) < 1e-6 corresponds to a residual more than ~5.3σ
// from the mean. The per-iteration trace events report how many rows fell
// below it.
const WeightFloor = 1e-6

// SolveOptions controls the least-squares estimation.
type SolveOptions struct {
	// Weighted enables the iteratively re-weighted least-squares refinement
	// of Eqs. 14–16. When false a single ordinary least-squares solve is
	// performed (Eq. 13).
	Weighted bool
	// MaxIterations bounds the IRWLS refinement. Zero means the default of
	// 10 iterations.
	MaxIterations int
	// Tolerance stops the refinement when the solution moves less than
	// this distance (metres) between iterations. Zero means 1e-4 (0.1 mm,
	// 1 % of the paper's ~1 cm accuracy); a smaller step buys iterations,
	// not accuracy. Tests set it tiny to reach the converged fixed point.
	Tolerance float64
	// Trace, when non-nil, records the solve: a span around the estimation
	// plus one event per IRWLS iteration carrying the residual norm, the
	// number of weight-floor hits, and the system's condition estimate. The
	// nil default costs nothing on the hot path.
	Trace *obs.Tracer
	// TraceSpan names this solve's span in the trace; empty means "solve".
	// Adaptive sweeps label each candidate's solve distinctly.
	TraceSpan string
}

func (o SolveOptions) traceSpan() string {
	if o.TraceSpan == "" {
		return "solve"
	}
	return o.TraceSpan
}

// DefaultSolveOptions returns the paper's default configuration: weighted
// least squares.
func DefaultSolveOptions() SolveOptions {
	return SolveOptions{Weighted: true}
}

func (o SolveOptions) maxIter() int {
	if o.MaxIterations <= 0 {
		return 10
	}
	return o.MaxIterations
}

func (o SolveOptions) tol() float64 {
	if o.Tolerance <= 0 {
		return 1e-4
	}
	return o.Tolerance
}

// Solution is the result of solving one localization system.
type Solution struct {
	// Position is the estimated target position. Coordinates whose Known
	// flag is false could not be determined from the linear system (the
	// lower-dimension case) and are NaN until RecoverMissing fills them.
	Position geom.Vec3
	// Known records which coordinates the linear solve determined.
	Known [3]bool
	// Dim is the dimensionality of the system that produced the solution.
	Dim int
	// RefDistance is the estimated reference distance d_r (the first
	// channel's, in the multi-channel case).
	RefDistance float64
	// RefDistances holds every channel's estimated reference distance.
	RefDistances []float64
	// Residuals are the per-equation residuals r_i = A_i·X − k_i at the
	// final estimate.
	Residuals []float64
	// Weights are the final IRWLS weights (all ones for plain LS).
	Weights []float64
	// MeanResidual is the weighted mean residual — the quantity the
	// adaptive parameter selection scheme drives toward zero (Sec. IV-C-1).
	MeanResidual float64
	// MeanAbsResidual and RMSResidual summarise the residual magnitude.
	MeanAbsResidual float64
	RMSResidual     float64
	// Iterations is the number of IRWLS iterations performed.
	Iterations int
	// FinalResidual is the 2-norm of the residual vector at the final
	// estimate, ‖A·X − k‖₂.
	FinalResidual float64
	// ConditionEstimate is a cheap lower-bound estimate of the unweighted
	// system's 2-norm condition number (mat.ConditionEst); large values
	// flag near-degenerate geometry before accuracy visibly collapses.
	ConditionEstimate float64
}

// XY returns the in-plane position estimate.
func (s *Solution) XY() geom.Vec2 { return s.Position.XY() }

// FullyKnown reports whether every coordinate of the system's dimension was
// determined directly.
func (s *Solution) FullyKnown() bool {
	for c := 0; c < s.Dim; c++ {
		if !s.Known[c] {
			return false
		}
	}
	return true
}

// SolveSystem estimates the target position from the linear system.
// Coordinate columns that are (numerically) zero — the lower-dimension case
// of Sec. III-C — are dropped from the solve; the corresponding coordinates
// are reported as unknown and can be recovered with RecoverMissing.
//
// SolveSystem allocates a fresh workspace per call; hot paths that solve in
// a loop should hold a SolveWorkspace and call SolveSystemInto, which is the
// same code with zero steady-state allocations.
func SolveSystem(sys *System, opts SolveOptions) (*Solution, error) {
	var ws SolveWorkspace
	sol := &Solution{}
	if err := SolveSystemInto(&ws, sys, opts, sol); err != nil {
		return nil, err
	}
	return sol, nil
}

// RecoverMissingMedian fills in the single unknown coordinate like
// RecoverMissing, but instead of relying solely on d_r at the reference
// position it forms one distance estimate per observation,
//
//	d̂_t = d_r + Δd_t,
//
// solves the recovery at every observation, and takes the median. Two
// robustness properties follow: a corrupted reference sample biases d_r and
// every Δd_t by opposite amounts, so the per-sample distances are unaffected;
// and a multipath fade corrupting a minority of samples is voted down by the
// median. This is a strict extension of the paper's recovery (with one clean
// reference the two coincide).
func (s *Solution) RecoverMissingMedian(p *Profile, positive bool) error {
	missing, err := s.missingCoordinate()
	if err != nil || missing < 0 {
		return err
	}
	// The unknown coordinate is constant across observations (its
	// coefficient column vanished precisely because every observation
	// shares it), so the per-sample squared offsets can be medianed first
	// and square-rooted once. Taking the median over the *discriminants*
	// keeps negative noise excursions as evidence, which matters when the
	// target sits close to the trajectory's plane or line — discarding them
	// would bias the recovered coordinate away from zero.
	est := [3]float64{s.Position.X, s.Position.Y, s.Position.Z}
	base := [3]float64{p.Obs[0].Pos.X, p.Obs[0].Pos.Y, p.Obs[0].Pos.Z}
	discs := make([]float64, 0, p.Len())
	for t := 0; t < p.Len(); t++ {
		dt := s.RefDistance + p.DeltaDist(t)
		pos := [3]float64{p.Obs[t].Pos.X, p.Obs[t].Pos.Y, p.Obs[t].Pos.Z}
		kss := 0.0
		for c := 0; c < s.Dim; c++ {
			if c == missing {
				continue
			}
			d := est[c] - pos[c]
			kss += d * d
		}
		discs = append(discs, dt*dt-kss)
	}
	if len(discs) < 3 {
		return s.RecoverMissing(p.RefPos(), positive)
	}
	off, err := medianOffset(discs, s.RefDistance, positive)
	if err != nil {
		return err
	}
	est[missing] = base[missing] + off
	s.Position = geom.Vec3{X: est[0], Y: est[1], Z: est[2]}
	s.Known[missing] = true
	return nil
}

// missingCoordinate returns the index of the single unknown coordinate, −1
// when everything is known, or ErrDegenerateGeometry when more than one
// coordinate is unknown.
func (s *Solution) missingCoordinate() (int, error) {
	missing := -1
	for c := 0; c < s.Dim; c++ {
		if !s.Known[c] {
			if missing >= 0 {
				return -1, fmt.Errorf("core: more than one unknown coordinate: %w",
					ErrDegenerateGeometry)
			}
			missing = c
		}
	}
	return missing, nil
}

// RecoverMissing fills in the single coordinate that the linear system could
// not determine, using the reference distance d_r (Observation 2 and
// Sec. IV-B-3):
//
//	missing = ref ± √(d_r² − Σ_known (coord − ref)²)
//
// refPos is the tag's reference position (Profile.RefPos). positive selects
// the branch on the positive side of the axis — e.g. "the antenna is above
// the tag trajectory". Small negative discriminants caused by noise are
// clamped to zero; large ones return ErrNoSolution.
func (s *Solution) RecoverMissing(refPos geom.Vec3, positive bool) error {
	missing, err := s.missingCoordinate()
	if err != nil || missing < 0 {
		return err
	}
	ref := [3]float64{refPos.X, refPos.Y, refPos.Z}
	est := [3]float64{s.Position.X, s.Position.Y, s.Position.Z}
	kss := 0.0
	for c := 0; c < s.Dim; c++ {
		if c == missing {
			continue
		}
		d := est[c] - ref[c]
		kss += d * d
	}
	disc := s.RefDistance*s.RefDistance - kss
	if disc < 0 {
		// Tolerate small noise-induced negatives.
		if disc > -0.02*s.RefDistance*s.RefDistance {
			disc = 0
		} else {
			return ErrNoSolution
		}
	}
	off := math.Sqrt(disc)
	if !positive {
		off = -off
	}
	est[missing] = ref[missing] + off
	s.Position = geom.Vec3{X: est[0], Y: est[1], Z: est[2]}
	s.Known[missing] = true
	return nil
}
