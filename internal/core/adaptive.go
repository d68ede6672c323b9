package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/rfid-lion/lion/internal/batch"
	"github.com/rfid-lion/lion/internal/geom"
	lionobs "github.com/rfid-lion/lion/internal/obs"
)

// ErrNoCandidates is returned when no parameter combination produced a
// usable solution.
var ErrNoCandidates = errors.New("core: no parameter combination produced a solution")

// Candidate is one parameter combination evaluated by the adaptive scheme.
type Candidate struct {
	ScanRange float64
	Interval  float64
	Solution  *Solution
	Err       error
}

// AdaptiveResult is the outcome of the adaptive parameter selection scheme
// (Sec. IV-C-1): the averaged position of the selected candidates plus the
// full sweep for inspection.
type AdaptiveResult struct {
	// Position is the average of the selected candidates' estimates.
	Position geom.Vec3
	// Selected are the candidates whose |mean residual| was closest to
	// zero.
	Selected []Candidate
	// All is the full sweep, including failures.
	All []Candidate
}

// selectionSlack is the multiplicative band above the best |mean residual|
// within which candidates are still averaged. The paper selects "the
// estimations with absolute residual around zero"; a tight band around the
// minimum realises that rule deterministically.
const selectionSlack = 1.5

// SelectByResidual implements the paper's rule on an existing sweep: keep
// the candidates whose |mean residual| is within a small band of the best,
// and average their positions.
func SelectByResidual(cands []Candidate) (*AdaptiveResult, error) {
	best := math.Inf(1)
	for _, c := range cands {
		if c.Err != nil || c.Solution == nil || !c.Solution.Position.IsFinite() {
			continue
		}
		if r := math.Abs(c.Solution.MeanResidual); r < best {
			best = r
		}
	}
	if math.IsInf(best, 1) {
		return nil, ErrNoCandidates
	}
	limit := best*selectionSlack + 1e-12
	res := &AdaptiveResult{All: cands}
	var sum geom.Vec3
	for _, c := range cands {
		if c.Err != nil || c.Solution == nil || !c.Solution.Position.IsFinite() {
			continue
		}
		if math.Abs(c.Solution.MeanResidual) <= limit {
			res.Selected = append(res.Selected, c)
			sum = sum.Add(c.Solution.Position)
		}
	}
	res.Position = sum.Scale(1 / float64(len(res.Selected)))
	return res, nil
}

// SelectByAbsResidual ranks candidates by their mean *absolute* residual and
// averages the best band. The signed-mean rule of SelectByResidual detects
// systematic bias; this variant detects bursty corruption (multipath fades),
// where the offending samples inflate the residual magnitude but cancel in
// the signed mean.
func SelectByAbsResidual(cands []Candidate) (*AdaptiveResult, error) {
	best := math.Inf(1)
	for _, c := range cands {
		if c.Err != nil || c.Solution == nil || !c.Solution.Position.IsFinite() {
			continue
		}
		if r := c.Solution.MeanAbsResidual; r < best {
			best = r
		}
	}
	if math.IsInf(best, 1) {
		return nil, ErrNoCandidates
	}
	limit := best*selectionSlack + 1e-12
	res := &AdaptiveResult{All: cands}
	var sum geom.Vec3
	for _, c := range cands {
		if c.Err != nil || c.Solution == nil || !c.Solution.Position.IsFinite() {
			continue
		}
		if c.Solution.MeanAbsResidual <= limit {
			res.Selected = append(res.Selected, c)
			sum = sum.Add(c.Solution.Position)
		}
	}
	res.Position = sum.Scale(1 / float64(len(res.Selected)))
	return res, nil
}

// gridSpec is one (range, interval) cell of an adaptive sweep, in the
// deterministic row-major order the serial loops used: ranges outer,
// intervals inner.
type gridSpec struct {
	scanRange float64
	interval  float64
}

func gridSpecs(ranges, intervals []float64) []gridSpec {
	specs := make([]gridSpec, 0, len(ranges)*len(intervals))
	for _, rg := range ranges {
		for _, iv := range intervals {
			specs = append(specs, gridSpec{scanRange: rg, interval: iv})
		}
	}
	return specs
}

// sweep evaluates every candidate with eval. Each candidate is an
// independent solve, so the sweep fans out across a batch worker pool;
// results land in the slice slot matching their candidate index, which keeps
// the output bit-identical to a serial loop (ties in SelectByResidual are
// broken by candidate order, i.e. deterministically by index). workers ≤ 1
// runs serially on the calling goroutine; workers == 0 uses GOMAXPROCS.
// A non-nil tracer receives one candidate event per evaluated cell with the
// weighted mean residual the selection rule ranks by.
func sweep(specs []gridSpec, workers int, tr *lionobs.Tracer, eval func(gridSpec) (*Solution, error)) []Candidate {
	cands := make([]Candidate, len(specs))
	fill := func(i int) {
		sol, err := eval(specs[i])
		cands[i] = Candidate{
			ScanRange: specs[i].scanRange,
			Interval:  specs[i].interval,
			Solution:  sol,
			Err:       err,
		}
		wres := 0.0
		if sol != nil {
			wres = sol.MeanResidual
		}
		tr.Candidate("adaptive", specs[i].scanRange, specs[i].interval, wres, err)
	}
	if workers == 1 || len(specs) < 2 {
		for i := range specs {
			fill(i)
		}
		return cands
	}
	jobs := make([]batch.Job, len(specs))
	for i := range specs {
		i := i
		jobs[i] = func() (any, error) {
			fill(i)
			return nil, nil
		}
	}
	batch.New(batch.Options{Workers: workers}).Run(jobs)
	return cands
}

// AdaptiveLocateThreeLine sweeps the scanning range and interval over the
// given values, runs the structured three-line localization for each
// combination in parallel, and fuses the estimates with SelectByResidual.
// base provides the grid step and solve options shared by all combinations.
func AdaptiveLocateThreeLine(in ThreeLineInput, ranges, intervals []float64, base StructuredOptions) (*AdaptiveResult, error) {
	return AdaptiveLocateThreeLineWorkers(in, ranges, intervals, base, 0)
}

// AdaptiveLocateThreeLineWorkers is AdaptiveLocateThreeLine with an explicit
// pool size: 0 means GOMAXPROCS, 1 forces the serial path. Both paths return
// bit-identical results.
func AdaptiveLocateThreeLineWorkers(in ThreeLineInput, ranges, intervals []float64, base StructuredOptions, workers int) (*AdaptiveResult, error) {
	if len(ranges) == 0 || len(intervals) == 0 {
		return nil, ErrNoCandidates
	}
	tr := base.Solve.Trace
	defer tr.SpanAt("adaptive_three_line").End()
	cands := sweep(gridSpecs(ranges, intervals), workers, tr, func(s gridSpec) (*Solution, error) {
		opts := base
		opts.ScanRange = s.scanRange
		opts.Interval = s.interval
		opts.Solve.TraceSpan = candidateSpan(tr, s)
		return LocateThreeLine(in, opts)
	})
	return SelectByResidual(cands)
}

// candidateSpan labels one candidate's solve span; building the label is
// skipped entirely when tracing is off.
func candidateSpan(tr *lionobs.Tracer, s gridSpec) string {
	if !tr.Enabled() {
		return ""
	}
	return fmt.Sprintf("cand[range=%g,interval=%g]", s.scanRange, s.interval)
}

// AdaptiveLocateTwoLine is the two-line analogue of AdaptiveLocateThreeLine.
func AdaptiveLocateTwoLine(in TwoLineInput, abovePlane bool, ranges, intervals []float64, base StructuredOptions) (*AdaptiveResult, error) {
	return AdaptiveLocateTwoLineWorkers(in, abovePlane, ranges, intervals, base, 0)
}

// AdaptiveLocateTwoLineWorkers is AdaptiveLocateTwoLine with an explicit
// pool size: 0 means GOMAXPROCS, 1 forces the serial path.
func AdaptiveLocateTwoLineWorkers(in TwoLineInput, abovePlane bool, ranges, intervals []float64, base StructuredOptions, workers int) (*AdaptiveResult, error) {
	if len(ranges) == 0 || len(intervals) == 0 {
		return nil, ErrNoCandidates
	}
	tr := base.Solve.Trace
	defer tr.SpanAt("adaptive_two_line").End()
	cands := sweep(gridSpecs(ranges, intervals), workers, tr, func(s gridSpec) (*Solution, error) {
		opts := base
		opts.ScanRange = s.scanRange
		opts.Interval = s.interval
		opts.Solve.TraceSpan = candidateSpan(tr, s)
		return LocateTwoLine(in, abovePlane, opts)
	})
	return SelectByResidual(cands)
}

// AdaptiveLocate2DLine sweeps the pairing interval for the single-line 2-D
// case and fuses the estimates with SelectByResidual.
func AdaptiveLocate2DLine(obs []PosPhase, lambda float64, intervals []float64, positiveSide bool, opts SolveOptions) (*AdaptiveResult, error) {
	return AdaptiveLocate2DLineWorkers(obs, lambda, intervals, positiveSide, opts, 0)
}

// AdaptiveLocate2DLineWorkers is AdaptiveLocate2DLine with an explicit pool
// size: 0 means GOMAXPROCS, 1 forces the serial path.
func AdaptiveLocate2DLineWorkers(obs []PosPhase, lambda float64, intervals []float64, positiveSide bool, opts SolveOptions, workers int) (*AdaptiveResult, error) {
	if len(intervals) == 0 {
		return nil, ErrNoCandidates
	}
	tr := opts.Trace
	defer tr.SpanAt("adaptive_line_2d").End()
	specs := make([]gridSpec, len(intervals))
	for i, iv := range intervals {
		specs[i] = gridSpec{interval: iv}
	}
	cands := sweep(specs, workers, tr, func(s gridSpec) (*Solution, error) {
		o := opts
		o.TraceSpan = candidateSpan(tr, s)
		return Locate2DLine(obs, lambda, s.interval, positiveSide, o)
	})
	return SelectByResidual(cands)
}
