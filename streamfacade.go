package lion

import (
	"context"

	"github.com/rfid-lion/lion/internal/stream"
)

// Streaming re-exports: the real-time localization engine behind the liond
// daemon. Push timestamped (position, wrapped phase) samples per tag into a
// StreamEngine and read estimates back continuously; the final window of a
// stream solves bit-identically to the offline pipeline over the same
// samples.
type (
	// StreamEngine ingests per-tag sample streams and publishes estimates.
	StreamEngine = stream.Engine
	// StreamConfig parameterises a StreamEngine.
	StreamConfig = stream.Config
	// StreamSample is one timestamped read.
	StreamSample = stream.Sample
	// StreamEstimate is one published localization result.
	StreamEstimate = stream.Estimate
	// StreamMetrics is a snapshot of the engine's counters.
	StreamMetrics = stream.Metrics
	// StreamSolver turns one preprocessed window into an estimate. The
	// window is engine storage that the next solve overwrites: it is valid
	// only for the call, so a solver must not retain it, and the Solution it
	// returns must not alias it.
	StreamSolver = stream.Solver
	// StreamSessionSolver is a stateful per-tag window solver, created by
	// StreamConfig.SolverFactory; see stream.SessionSolver for the aliasing
	// and serialization contract.
	StreamSessionSolver = stream.SessionSolver
	// StreamDropPolicy selects the behaviour at a full window.
	StreamDropPolicy = stream.DropPolicy
	// StreamProfile is one antenna's live calibration (phase center, Eq. 17
	// offset); install via StreamConfig.Profile and hot-swap with
	// StreamEngine.SwapProfile.
	StreamProfile = stream.Profile
)

// Overflow policies for StreamConfig.Policy.
const (
	// EvictOldest slides the window (the default).
	EvictOldest = stream.EvictOldest
	// RejectNewest refuses samples at a full window.
	RejectNewest = stream.RejectNewest
)

// Streaming errors re-exported for matching with errors.Is.
var (
	ErrStreamClosed     = stream.ErrClosed
	ErrStreamWindowFull = stream.ErrWindowFull
	ErrStreamBadSample  = stream.ErrBadSample
)

// NewStreamEngine validates the configuration and starts the solve pool.
func NewStreamEngine(cfg StreamConfig) (*StreamEngine, error) { return stream.New(cfg) }

// StreamLine2DSolver returns the conveyor/track solver: Locate2DLineIntervals
// over each window.
func StreamLine2DSolver(lambda float64, intervals []float64, positiveSide bool, opts SolveOptions) StreamSolver {
	return stream.Line2DSolver(lambda, intervals, positiveSide, opts)
}

// StreamFree2DSolver returns a Locate2D window solver with stride pairing
// (stride 0 = quarter window).
func StreamFree2DSolver(lambda float64, stride int, opts SolveOptions) StreamSolver {
	return stream.Free2DSolver(lambda, stride, opts)
}

// StreamFree3DSolver is StreamFree2DSolver with full 3-D diversity.
func StreamFree3DSolver(lambda float64, stride int, opts SolveOptions) StreamSolver {
	return stream.Free3DSolver(lambda, stride, opts)
}

// StreamIncrementalLine2DFactory returns a StreamConfig.SolverFactory whose
// per-tag sessions solve the line case on their own core.LineSession: zero
// heap allocations per steady-state window re-solve, bit-identical to
// StreamLine2DSolver with Smooth 0. Requires StreamConfig.Smooth == 0.
func StreamIncrementalLine2DFactory(lambda float64, intervals []float64, positiveSide bool, opts SolveOptions) (func() StreamSessionSolver, error) {
	return stream.IncrementalLine2DFactory(lambda, intervals, positiveSide, opts)
}

// StreamSampleOf converts a testbed read into a stream sample.
func StreamSampleOf(s Sample) StreamSample { return stream.FromSim(s) }

// ReplayTrace feeds a recorded trace into the engine under one tag at the
// given speed multiple of real time (<= 0 = as fast as possible). It returns
// the number of samples accepted.
func ReplayTrace(ctx context.Context, e *StreamEngine, tag string, trace []Sample, speed float64) (int, error) {
	return stream.Replay(ctx, e, tag, trace, speed)
}

// SolveStreamWindow runs the offline pipeline (Preprocess + solver) over one
// window of samples — the exact computation a StreamEngine performs per
// snapshot, exposed for equivalence checks and one-shot use.
func SolveStreamWindow(samples []StreamSample, smooth int, solver StreamSolver) (*Solution, error) {
	return stream.SolveWindow(samples, smooth, solver, nil)
}
