package lion

import (
	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
)

// Geometry primitives.
type (
	// Vec2 is a point or displacement in the plane.
	Vec2 = geom.Vec2
	// Vec3 is a point or displacement in space.
	Vec3 = geom.Vec3
)

// V2 constructs a Vec2.
func V2(x, y float64) Vec2 { return geom.V2(x, y) }

// V3 constructs a Vec3.
func V3(x, y, z float64) Vec3 { return geom.V3(x, y, z) }

// RF model.
type (
	// Band describes the reader's carrier.
	Band = rf.Band
)

// DefaultBand returns the paper's 920.625 MHz carrier.
func DefaultBand() Band { return rf.DefaultBand() }

// WrapPhase maps an angle onto [0, 2π).
func WrapPhase(theta float64) float64 { return rf.WrapPhase(theta) }

// WrapPhaseSigned maps an angle onto (−π, π] — the right wrap for comparing
// two phases, where the distance between 0.01 and 2π−0.01 is 0.02, not ~2π.
func WrapPhaseSigned(theta float64) float64 { return rf.WrapPhaseSigned(theta) }

// PhaseOfDistance returns the round-trip phase 4π·d/λ.
func PhaseOfDistance(d, lambda float64) float64 {
	return rf.PhaseOfDistance(d, lambda)
}

// Core localization types.
type (
	// PosPhase is one measurement: known tag position plus unwrapped phase.
	PosPhase = core.PosPhase
	// Pair indexes two observations forming one radical-line equation.
	Pair = core.Pair
	// Solution is a localization estimate with residual diagnostics.
	Solution = core.Solution
	// SolveOptions configures the (weighted) least-squares solver.
	SolveOptions = core.SolveOptions
	// StructuredOptions configures the multi-line structured pipelines.
	StructuredOptions = core.StructuredOptions
	// ThreeLineInput carries a three-line calibration scan.
	ThreeLineInput = core.ThreeLineInput
	// TwoLineInput carries a two-line planar scan.
	TwoLineInput = core.TwoLineInput
	// Candidate is one parameter combination in an adaptive sweep.
	Candidate = core.Candidate
	// AdaptiveResult is the fused outcome of an adaptive sweep.
	AdaptiveResult = core.AdaptiveResult
	// CenterCalibration reports a phase-center calibration.
	CenterCalibration = core.CenterCalibration
)

// Errors re-exported for matching with errors.Is.
var (
	ErrTooFewObservations = core.ErrTooFewObservations
	ErrDegenerateGeometry = core.ErrDegenerateGeometry
	ErrNoSolution         = core.ErrNoSolution
	ErrNoCandidates       = core.ErrNoCandidates
	ErrBadLambda          = core.ErrBadLambda
	ErrNonFiniteInput     = core.ErrNonFiniteInput
)

// DefaultSolveOptions returns the paper's default: weighted least squares.
func DefaultSolveOptions() SolveOptions { return core.DefaultSolveOptions() }

// DefaultStructuredOptions returns the paper's structured-scan defaults
// (range 0.8 m, interval 0.2 m, WLS).
func DefaultStructuredOptions() StructuredOptions {
	return core.DefaultStructuredOptions()
}

// Preprocess unwraps raw wrapped phases and optionally smooths them with a
// centred moving average, returning measurement records ready for the
// localizers (Sec. IV-A of the paper).
func Preprocess(positions []Vec3, wrapped []float64, smoothWindow int) ([]PosPhase, error) {
	return core.Preprocess(positions, wrapped, smoothWindow)
}

// Locate2D estimates a target in the plane from observations on an
// arbitrary 2-D trajectory using the supplied pairs.
func Locate2D(obs []PosPhase, lambda float64, pairs []Pair, opts SolveOptions) (*Solution, error) {
	return core.Locate2D(obs, lambda, pairs, opts)
}

// Locate3D estimates a target in space from observations with full 3-D
// displacement diversity.
func Locate3D(obs []PosPhase, lambda float64, pairs []Pair, opts SolveOptions) (*Solution, error) {
	return core.Locate3D(obs, lambda, pairs, opts)
}

// Locate2DLine solves the 2-D lower-dimension case: observations on a single
// straight line, the perpendicular coordinate recovered through d_r.
func Locate2DLine(obs []PosPhase, lambda, interval float64, positiveSide bool, opts SolveOptions) (*Solution, error) {
	return core.Locate2DLine(obs, lambda, interval, positiveSide, opts)
}

// Locate2DLineIntervals is Locate2DLine with several pairing separations
// combined into one system, which conditions the depth estimate at long
// range.
func Locate2DLineIntervals(obs []PosPhase, lambda float64, intervals []float64, positiveSide bool, opts SolveOptions) (*Solution, error) {
	return core.Locate2DLineIntervals(obs, lambda, intervals, positiveSide, opts)
}

// Locate3DPlanar solves the 3-D lower-dimension case: observations confined
// to a plane, with the out-of-plane coordinate recovered through d_r.
func Locate3DPlanar(obs []PosPhase, lambda float64, pairs []Pair, positiveSide bool, opts SolveOptions) (*Solution, error) {
	return core.Locate3DPlanar(obs, lambda, pairs, positiveSide, opts)
}

// LocateThreeLine runs the full 3-D structured localization over a
// three-line scan (paper Fig. 11, Eqs. 10–12).
func LocateThreeLine(in ThreeLineInput, opts StructuredOptions) (*Solution, error) {
	return core.LocateThreeLine(in, opts)
}

// LocateTwoLine runs the planar structured localization and recovers z.
func LocateTwoLine(in TwoLineInput, abovePlane bool, opts StructuredOptions) (*Solution, error) {
	return core.LocateTwoLine(in, abovePlane, opts)
}

// AdaptiveLocateThreeLine sweeps scanning range and interval and fuses the
// estimates by the residual-near-zero rule (Sec. IV-C-1).
func AdaptiveLocateThreeLine(in ThreeLineInput, ranges, intervals []float64, base StructuredOptions) (*AdaptiveResult, error) {
	return core.AdaptiveLocateThreeLine(in, ranges, intervals, base)
}

// AdaptiveLocateTwoLine is the two-line analogue of AdaptiveLocateThreeLine.
func AdaptiveLocateTwoLine(in TwoLineInput, abovePlane bool, ranges, intervals []float64, base StructuredOptions) (*AdaptiveResult, error) {
	return core.AdaptiveLocateTwoLine(in, abovePlane, ranges, intervals, base)
}

// PhaseOffset estimates the device phase offset Δθ = θ_T + θ_R (Eq. 17)
// against a calibrated phase center.
func PhaseOffset(positions []Vec3, wrapped []float64, center Vec3, lambda float64) (float64, error) {
	return core.PhaseOffset(positions, wrapped, center, lambda)
}

// ApplyPhaseOffset removes a calibrated offset from a wrapped measurement.
func ApplyPhaseOffset(measured, offset float64) float64 {
	return core.ApplyPhaseOffset(measured, offset)
}

// Pair-selection strategies.

// StridePairs pairs observation i with i+stride.
func StridePairs(n, stride int) []Pair { return core.StridePairs(n, stride) }

// SeparationPairs pairs each observation with the first later one at least
// sep metres away.
func SeparationPairs(pos []Vec3, sep float64) []Pair {
	return core.SeparationPairs(pos, sep)
}

// SubsampledAllPairs draws up to maxPairs pairs evenly from all (i, j)
// combinations.
func SubsampledAllPairs(n, maxPairs int) []Pair {
	return core.SubsampledAllPairs(n, maxPairs)
}
