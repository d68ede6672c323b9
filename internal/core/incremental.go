package core

import (
	"fmt"
	"math"

	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/mat"
)

const (
	// defaultRebuildEvery bounds how many consecutive slides a LineSession
	// accepts before re-anchoring from scratch, regardless of drift. It
	// caps incremental rounding accumulation and keeps the reported
	// RefDistance's anchor from receding arbitrarily far behind the window.
	defaultRebuildEvery = 256
	// driftRebuildRatio triggers a re-anchor when the maintained normal
	// equations have decayed this far below their historical peak magnitude
	// (see mat.NormalEq.DriftRatio): past it, the cancellation error frozen
	// into the Gram entries threatens the 1e-9 equivalence bound.
	driftRebuildRatio = 1e3
)

// lineKeep is the reduced-column map of every 2-D line solve: the local
// frame zeroes the y column, so the kept columns are x and d_r.
var lineKeep = []int{0, 2}

// linePair is one cached radical-line equation: the pair's absolute sample
// indices plus its reduced row [α, ω] and right-hand side κ. Rows are cached
// because removal from the normal equations must subtract exactly the values
// that were added, and because retained pairs' coefficients are invariant
// under a window slide (positions and Δd of retained samples don't change).
type linePair struct {
	i, j int
	a    [2]float64
	k    float64
}

// LineSessionStats counts the work a session has done, for tests and
// observability.
type LineSessionStats struct {
	// Solves is the number of successful Locate calls.
	Solves int
	// Rebuilds counts full re-anchors (first call, slide-detection misses,
	// drift and budget triggers).
	Rebuilds int
	// Slides counts Locate calls served incrementally.
	Slides int
	// Refactorizations and IncrementalUpdates are the underlying normal-
	// equation counters (mat.NormalEq).
	Refactorizations   int
	IncrementalUpdates int
}

// LineSession is the incremental form of Locate2DLineIntervals for sliding
// windows: a stateful solver that recognises when the current window is the
// previous one slid forward (samples evicted at the front, appended at the
// back) and reuses the previous window's pair rows and normal-equation
// factorization instead of rebuilding the system from scratch.
//
// Equivalence contract:
//
//   - A rebuild solve (the first call, or any call where slide detection
//     fails) is bit-identical to Locate2DLineIntervals on the same window.
//   - A slide solve agrees with Locate2DLineIntervals to within ~1e-9 on
//     Position for well-conditioned windows of collinear samples in a
//     z = const plane. Two effects contribute the difference: the session
//     keeps its anchor frame (origin, reference sample) from the last
//     rebuild while the batch path re-anchors at every window's midpoint —
//     the solutions map between the frames exactly in real arithmetic — and
//     the factorization is maintained by rank-1 update/downdate rather than
//     recomputed. RefDistance is reported relative to the session's anchor
//     reference sample, not the current window midpoint.
//   - Pairs are chosen exactly as Locate2DLineIntervals chooses them: the
//     separation scan runs on the current window's own frame (origin at its
//     middle sample, û from its first to its last sample), not the anchor
//     frame. On evenly spaced reads a pair can sit exactly one interval
//     apart, and the two frames then round that separation differently.
//   - Sessions re-anchor automatically every RebuildEvery slides, when the
//     normal equations drift past mat.NormalEq's documented bound, when the
//     anchor reference sample is evicted, and whenever the incoming window
//     is not a forward slide of the previous one (including any smoothing
//     that rewrites overlap samples — feed unsmoothed profiles).
//
// Steady-state slides perform zero heap allocations. A session must not be
// shared between goroutines; the stream engine owns one per tag session.
type LineSession struct {
	lambda       float64
	intervals    []float64
	positiveSide bool

	// RebuildEvery overrides the re-anchor cadence; zero means the default
	// of 256 slides.
	RebuildEvery int

	// Anchor frame, fixed between rebuilds.
	valid  bool
	origin geom.Vec3
	u, v   geom.Vec2
	base   int // absolute index of window[0]
	refAbs int // absolute index of the anchor reference sample

	world []geom.Vec3 // world positions of the current window (slide matching)
	prof  Profile     // local-frame profile: Obs=(pu,0,0), session-frame θ, cached Δd
	frame []PosPhase  // the current window in its own frame, for pair scans

	pairs [][]linePair // per interval, sorted by first index
	next  [][]linePair // scratch buffers for rescans (double-buffered)
	scan  []Pair       // pair-scan scratch, window-relative indices

	ne  mat.NormalEq
	ls  mat.Workspace
	a   mat.Dense // assembled reduced system (rows×2) for IRLS/residuals
	kv  []float64
	x   []float64
	wts []float64
	dsc []float64 // median-recovery scratch

	sinceRebuild int
	stats        LineSessionStats
}

// NewLineSession returns an incremental sliding-window solver with the same
// parameters as Locate2DLineIntervals. The intervals are copied.
func NewLineSession(lambda float64, intervals []float64, positiveSide bool) (*LineSession, error) {
	if lambda <= 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return nil, ErrBadLambda
	}
	if err := checkIntervals(intervals); err != nil {
		return nil, err
	}
	s := &LineSession{
		lambda:       lambda,
		intervals:    append([]float64(nil), intervals...),
		positiveSide: positiveSide,
	}
	s.prof.Lambda = lambda
	s.pairs = make([][]linePair, len(intervals))
	s.next = make([][]linePair, len(intervals))
	s.ne.Reset(2)
	return s, nil
}

// Stats returns the session's work counters.
func (s *LineSession) Stats() LineSessionStats {
	st := s.stats
	st.Refactorizations = s.ne.Refactorizations()
	st.IncrementalUpdates = s.ne.IncrementalUpdates()
	return st
}

func (s *LineSession) rebuildEvery() int {
	if s.RebuildEvery > 0 {
		return s.RebuildEvery
	}
	return defaultRebuildEvery
}

// Locate estimates the target position from the window, writing the result
// into sol (whose slices are reused across calls — the caller owns sol and
// may retain or mutate it freely between calls). The window is the full
// current sample set, exactly as Locate2DLineIntervals would receive it.
func (s *LineSession) Locate(win []PosPhase, opts SolveOptions, sol *Solution) error {
	if len(win) < 4 {
		return ErrTooFewObservations
	}
	origin, u, v, err := lineFrame(win)
	if err != nil {
		return err
	}

	slid := false
	if s.valid && s.sinceRebuild < s.rebuildEvery() && s.ne.DriftRatio() <= driftRebuildRatio {
		slid = s.trySlide(win, origin, u)
	}
	if slid {
		s.sinceRebuild++
		s.stats.Slides++
	} else {
		if err := s.rebuild(win, origin, u, v); err != nil {
			return err
		}
	}
	if err := s.solve(opts, sol); err != nil {
		return err
	}
	if err := recoverLineMedian(sol, &s.prof, s.positiveSide, &s.dsc); err != nil {
		return err
	}
	// Map the line-frame estimate back into world coordinates.
	est := s.origin.XY().
		Add(s.u.Scale(sol.Position.X)).
		Add(s.v.Scale(sol.Position.Y))
	sol.Position = est.XYZ(s.origin.Z)
	s.stats.Solves++
	return nil
}

// trySlide checks whether win is the previous window slid forward — an
// eviction prefix followed by the exact retained overlap (bit-equal
// positions, phases shifted by one global unwrap constant) and appended new
// samples — and commits the incremental update when it is. It reports false
// (leaving the session unchanged) when the window must be rebuilt. origin
// and u are the window's own frame, which the pair scan runs in.
func (s *LineSession) trySlide(win []PosPhase, origin geom.Vec3, u geom.Vec2) bool {
	m := len(s.prof.Obs)
	k := -1
	for c := 0; c <= m-2; c++ {
		if s.world[c] == win[0].Pos && m-c <= len(win) {
			k = c
			break
		}
	}
	if k < 0 {
		return false
	}
	overlap := m - k
	if s.refAbs-(s.base+k) < 0 {
		return false // anchor reference sample would be evicted
	}
	// The window re-unwraps from its own first sample, so the overlap's
	// phases differ from the stored session-frame phases by one global
	// constant (a 2π multiple plus the anchor shift). Estimate it from the
	// first overlap sample and require it to be constant across the rest.
	c0 := s.prof.Obs[k].Theta - win[0].Theta
	for i := 1; i < overlap; i++ {
		if s.world[k+i] != win[i].Pos {
			return false
		}
		if d := math.Abs(s.prof.Obs[k+i].Theta - (win[i].Theta + c0)); d > 1e-9*math.Max(1, math.Abs(win[i].Theta)) {
			return false
		}
	}
	for i := overlap; i < len(win); i++ {
		o := win[i]
		if !o.Pos.IsFinite() || math.IsNaN(o.Theta) || math.IsInf(o.Theta, 0) {
			return false // rebuild path reports ErrNonFiniteInput with the index
		}
	}

	// Commit: evict the k oldest samples, append the new tail.
	if k > 0 {
		s.base += k
		s.world = s.world[:copy(s.world, s.world[k:])]
		s.prof.Obs = s.prof.Obs[:copy(s.prof.Obs, s.prof.Obs[k:])]
		s.prof.deltaD = s.prof.deltaD[:copy(s.prof.deltaD, s.prof.deltaD[k:])]
	}
	s.prof.RefIndex = s.refAbs - s.base
	refTheta := s.prof.Obs[s.prof.RefIndex].Theta
	tail := len(s.prof.Obs)
	s.prof.Obs = projectLine(s.prof.Obs, win[overlap:], s.origin, s.u)
	for i := tail; i < len(s.prof.Obs); i++ {
		s.prof.Obs[i].Theta += c0 // translate into the session's phase frame
	}
	s.prof.deltaD = appendDeltaD(s.prof.deltaD, s.prof.Obs[tail:], refTheta, s.lambda)
	for _, o := range win[overlap:] {
		s.world = append(s.world, o.Pos)
	}
	s.frame = projectLine(s.frame[:0], win, origin, u)
	s.diffPairs()
	return true
}

// rebuild re-anchors the session on win in the window's own frame (origin,
// û, v̂ from lineFrame), exactly as Locate2DLineIntervals sets up a fresh
// solve, with the reference sample at the midpoint index.
func (s *LineSession) rebuild(win []PosPhase, origin geom.Vec3, u, v geom.Vec2) error {
	if err := checkFinite(win); err != nil {
		return err
	}
	s.valid = false
	s.origin, s.u, s.v = origin, u, v
	s.base = 0
	s.refAbs = len(win) / 2

	s.world = s.world[:0]
	for _, o := range win {
		s.world = append(s.world, o.Pos)
	}
	s.prof.Obs = projectLine(s.prof.Obs[:0], win, origin, u)
	if err := s.prof.reset(s.lambda, s.refAbs); err != nil {
		return err
	}

	s.ne.Reset(2)
	for ivi, iv := range s.intervals {
		s.pairs[ivi] = s.scanPairs(s.prof.Obs, iv, s.pairs[ivi][:0])
		for pi := range s.pairs[ivi] {
			s.addPair(&s.pairs[ivi][pi])
		}
	}
	s.valid = true
	s.sinceRebuild = 0
	s.stats.Rebuilds++
	return nil
}

// scanPairs runs the shared separation scan over frame, the current window
// in its own frame, appending the pairs with absolute indices into out.
func (s *LineSession) scanPairs(frame []PosPhase, sep float64, out []linePair) []linePair {
	s.scan = appendSeparationPairs(s.scan[:0], frame, sep)
	for _, p := range s.scan {
		out = append(out, linePair{i: s.base + p.I, j: s.base + p.J})
	}
	return out
}

// addPair computes and caches the pair's reduced equation row via the shared
// equation2D kernel, then accumulates it into the normal equations.
func (s *LineSession) addPair(p *linePair) {
	row, rhs := s.prof.equation2D(Pair{I: p.i - s.base, J: p.j - s.base})
	p.a = [2]float64{row[0], row[2]}
	p.k = rhs
	s.ne.AddRow(p.a[:], p.k)
}

// diffPairs rescans the pair lists over the slid window in its own frame
// (s.frame) and applies the difference to the normal equations: rows for
// pairs that left the window are downdated out, rows for new pairs are
// updated in, retained pairs keep their cached coefficients (which a slide
// provably does not change).
func (s *LineSession) diffPairs() {
	for ivi, iv := range s.intervals {
		fresh := s.scanPairs(s.frame, iv, s.next[ivi][:0])
		old := s.pairs[ivi]
		oi, ni := 0, 0
		for oi < len(old) || ni < len(fresh) {
			switch {
			case ni >= len(fresh):
				s.ne.RemoveRow(old[oi].a[:], old[oi].k)
				oi++
			case oi >= len(old):
				s.addPair(&fresh[ni])
				ni++
			case old[oi].i == fresh[ni].i && old[oi].j == fresh[ni].j:
				fresh[ni].a, fresh[ni].k = old[oi].a, old[oi].k
				oi++
				ni++
			case old[oi].i < fresh[ni].i:
				s.ne.RemoveRow(old[oi].a[:], old[oi].k)
				oi++
			case fresh[ni].i < old[oi].i:
				s.addPair(&fresh[ni])
				ni++
			default: // same first index, different partner: replace
				s.ne.RemoveRow(old[oi].a[:], old[oi].k)
				s.addPair(&fresh[ni])
				oi++
				ni++
			}
		}
		s.pairs[ivi], s.next[ivi] = fresh, old // double-buffer swap
	}
}

// solve runs the reduced least-squares solve over the cached pair rows,
// mirroring SolveSystem's degeneracy checks and IRLS loop, with the initial
// factorization served incrementally by the normal equations.
func (s *LineSession) solve(opts SolveOptions, sol *Solution) error {
	defer opts.Trace.Span(opts.traceSpan())()
	nPairs := 0
	for _, pl := range s.pairs {
		nPairs += len(pl)
	}
	if nPairs < 3 {
		return fmt.Errorf("core: intervals %v leave %d pairs: %w",
			s.intervals, nPairs, ErrTooFewObservations)
	}

	// Assemble the reduced system for the IRLS loop and residuals, and run
	// the same scale/column checks SolveSystem applies to the full matrix
	// (whose y column is identically zero in the line frame).
	s.a.Reshape(nPairs, 2)
	s.kv = growFloats(s.kv, nPairs)
	r := 0
	scale, colMaxX := 0.0, 0.0
	for _, pl := range s.pairs {
		for _, p := range pl {
			s.a.Set(r, 0, p.a[0])
			s.a.Set(r, 1, p.a[1])
			s.kv[r] = p.k
			if v := math.Abs(p.a[0]); v > colMaxX {
				colMaxX = v
			}
			if v := math.Abs(p.a[1]); v > scale {
				scale = v
			}
			r++
		}
	}
	if colMaxX > scale {
		scale = colMaxX
	}
	if scale == 0 {
		return ErrDegenerateGeometry
	}
	if colMaxX <= 1e-9*scale {
		return ErrDegenerateGeometry
	}

	x0, err := s.ne.Solve()
	if err != nil {
		// Not SPD: fall back to the same Cholesky-then-QR chain the batch
		// path uses over the assembled rows.
		x0, err = s.ls.LeastSquares(&s.a, s.kv)
		if err != nil {
			return leastSquaresErr(err)
		}
	}
	s.x = append(s.x[:0], x0...)
	condEst := s.ne.ConditionEst()

	s.wts = onesInto(s.wts, nPairs)
	iterations, err := irlsRefine(&s.ls, &s.a, s.kv, &s.x, s.wts, opts, condEst)
	if err != nil {
		return err
	}
	res, err := s.ls.Residuals(&s.a, s.x, s.kv)
	if err != nil {
		return fmt.Errorf("residuals: %w", err)
	}
	fillSolution(sol, 2, 1, [3]bool{true, false, false}, lineKeep,
		s.x, res, s.wts, iterations, condEst)
	return nil
}
