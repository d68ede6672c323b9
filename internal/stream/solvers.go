package stream

import (
	"sync"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/dsp"
	"github.com/rfid-lion/lion/internal/obs"
)

// Line2DSolver returns a Solver running core.Locate2DLineIntervals: the
// lower-dimension 2-D case for tags moving along a straight line (conveyor
// belts, sliding tracks). This is liond's default solver.
//
// The solver keeps its core.LineWorkspace scratch in a pool, so concurrent
// calls each get their own and a warm call allocates only the Solution it
// returns — a fresh one per call, which the caller owns. Estimates are
// bit-identical to core.Locate2DLineIntervals.
func Line2DSolver(lambda float64, intervals []float64, positiveSide bool, opts core.SolveOptions) Solver {
	ivs := make([]float64, len(intervals))
	copy(ivs, intervals)
	pool := &sync.Pool{New: func() any { return new(core.LineWorkspace) }}
	return func(win []core.PosPhase, tr *obs.Tracer) (*core.Solution, error) {
		o := opts
		o.Trace = tr
		ws := pool.Get().(*core.LineWorkspace)
		defer pool.Put(ws)
		sol := &core.Solution{}
		if err := core.Locate2DLineIntervalsInto(ws, win, lambda, ivs, positiveSide, o, sol); err != nil {
			return nil, err
		}
		return sol, nil
	}
}

// Free2DSolver returns a Solver running core.Locate2D with stride pairing
// over the window, for arbitrary known 2-D trajectories. A stride of zero
// pairs each sample with the one a quarter-window ahead.
func Free2DSolver(lambda float64, stride int, opts core.SolveOptions) Solver {
	return func(win []core.PosPhase, tr *obs.Tracer) (*core.Solution, error) {
		o := opts
		o.Trace = tr
		return core.Locate2D(win, lambda, core.StridePairs(len(win), strideFor(len(win), stride)), o)
	}
}

// Free3DSolver is Free2DSolver for trajectories with full 3-D diversity.
func Free3DSolver(lambda float64, stride int, opts core.SolveOptions) Solver {
	return func(win []core.PosPhase, tr *obs.Tracer) (*core.Solution, error) {
		o := opts
		o.Trace = tr
		return core.Locate3D(win, lambda, core.StridePairs(len(win), strideFor(len(win), stride)), o)
	}
}

// IncrementalLine2DFactory returns a Config.SolverFactory for the sliding-
// window line solver: every tag session gets its own core.LineSession plus
// preprocessing buffers, so a steady-state window re-solve — unwrap, line
// solve, IRLS refinement, publication — performs zero heap allocations.
// Every estimate is bit-identical to Line2DSolver with Smooth 0 over the
// same window.
//
// The parameters are validated eagerly, not at first solve.
func IncrementalLine2DFactory(lambda float64, intervals []float64, positiveSide bool, opts core.SolveOptions) (func() SessionSolver, error) {
	if _, err := core.NewLineSession(lambda, intervals, positiveSide); err != nil {
		return nil, err
	}
	ivs := make([]float64, len(intervals))
	copy(ivs, intervals)
	return func() SessionSolver {
		sess, err := core.NewLineSession(lambda, ivs, positiveSide)
		if err != nil {
			// Unreachable: the parameters were validated above and the copied
			// intervals cannot change.
			panic(err)
		}
		return &incrLineSolver{sess: sess, opts: opts}
	}, nil
}

// incrLineSolver adapts a core.LineSession to the SessionSolver contract,
// owning the unwrap buffer, the observation window, and the result Solution.
type incrLineSolver struct {
	sess  *core.LineSession
	opts  core.SolveOptions
	theta []float64
	win   []core.PosPhase
	sol   core.Solution
}

// SolveWindow preprocesses exactly like the stateless path with Smooth=0 —
// copy phases, unwrap — then runs the session's locate. Finite validation
// happens inside the line solve, matching core.Preprocess's rejection of
// non-finite input.
func (s *incrLineSolver) SolveWindow(samples []Sample, tr *obs.Tracer) (*core.Solution, error) {
	if cap(s.theta) < len(samples) {
		s.theta = make([]float64, 0, len(samples))
	}
	s.theta = s.theta[:0]
	for _, sm := range samples {
		s.theta = append(s.theta, sm.Phase)
	}
	s.theta = dsp.UnwrapInto(s.theta, s.theta)
	if cap(s.win) < len(samples) {
		s.win = make([]core.PosPhase, 0, len(samples))
	}
	s.win = s.win[:0]
	for i, sm := range samples {
		s.win = append(s.win, core.PosPhase{Pos: sm.Pos, Theta: s.theta[i]})
	}
	o := s.opts
	o.Trace = tr
	if err := s.sess.Locate(s.win, o, &s.sol); err != nil {
		return nil, err
	}
	return &s.sol, nil
}

// Stats exposes the underlying session's work counters.
func (s *incrLineSolver) Stats() core.LineSessionStats { return s.sess.Stats() }

func strideFor(n, stride int) int {
	if stride > 0 {
		return stride
	}
	s := n / 4
	if s < 1 {
		s = 1
	}
	return s
}
