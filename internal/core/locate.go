package core

import (
	"fmt"
	"math"
	"sort"

	"github.com/rfid-lion/lion/internal/dsp"
	"github.com/rfid-lion/lion/internal/geom"
)

// Locate2D estimates a target position in the plane from observations on an
// arbitrary known 2-D trajectory (e.g. the turntable circle of Sec. V-F-2),
// using the supplied pairs. Observation z-coordinates are carried through to
// the result unchanged; the solve itself uses x and y.
func Locate2D(obs []PosPhase, lambda float64, pairs []Pair, opts SolveOptions) (*Solution, error) {
	p, err := NewProfile(obs, lambda)
	if err != nil {
		return nil, err
	}
	sys, err := BuildSystem(p, pairs, 2)
	if err != nil {
		return nil, err
	}
	sol, err := SolveSystem(sys, opts)
	if err != nil {
		return nil, err
	}
	sol.Position.Z = p.RefPos().Z
	return sol, nil
}

// Locate3D estimates a target position in space from observations on an
// arbitrary known trajectory with full 3-D displacement diversity.
func Locate3D(obs []PosPhase, lambda float64, pairs []Pair, opts SolveOptions) (*Solution, error) {
	p, err := NewProfile(obs, lambda)
	if err != nil {
		return nil, err
	}
	sys, err := BuildSystem(p, pairs, 3)
	if err != nil {
		return nil, err
	}
	return SolveSystem(sys, opts)
}

// Locate2DLine solves the 2-D lower-dimension case of Sec. III-C-1: the tag
// moves along a single straight line (any direction) in a z = const plane.
// The solve runs in the line's own frame, where the perpendicular coordinate
// column vanishes and is recovered from d_r. positiveSide selects the branch:
// the target lies on the side of û rotated +90° (counter-clockwise), where û
// points from the first to the last observation.
//
// interval is the pairing separation along the line in metres (the paper's
// scanning interval); values around 0.2 m work well at UHF wavelengths.
func Locate2DLine(obs []PosPhase, lambda float64, interval float64, positiveSide bool, opts SolveOptions) (*Solution, error) {
	return Locate2DLineIntervals(obs, lambda, []float64{interval}, positiveSide, opts)
}

// Locate2DLineIntervals is Locate2DLine with several pairing separations
// combined into one system. Short pairs pin the along-track coordinate;
// long pairs capture the curvature of the distance profile, which is what
// determines d_r (and therefore the recovered perpendicular coordinate) at
// large depth.
//
// It allocates a fresh LineWorkspace per call; hot paths that solve window
// after window should hold one and call Locate2DLineIntervalsInto, which is
// the same code without steady-state allocations.
func Locate2DLineIntervals(obs []PosPhase, lambda float64, intervals []float64, positiveSide bool, opts SolveOptions) (*Solution, error) {
	var ws LineWorkspace
	sol := &Solution{}
	if err := Locate2DLineIntervalsInto(&ws, obs, lambda, intervals, positiveSide, opts, sol); err != nil {
		return nil, err
	}
	return sol, nil
}

// Locate3DPlanar solves the 3-D lower-dimension case of Sec. III-C-2: the
// tag moves along a non-linear trajectory confined to a plane (e.g. a
// turntable circle, or the two-line scan). The out-of-plane coordinate is
// recovered from d_r. positiveSide places the target on the +normal side,
// where the normal is û×v̂ of the fitted plane frame.
func Locate3DPlanar(obs []PosPhase, lambda float64, pairs []Pair, positiveSide bool, opts SolveOptions) (*Solution, error) {
	if len(obs) < 5 {
		return nil, ErrTooFewObservations
	}
	origin := obs[len(obs)/2].Pos
	u, v, w, err := planeFrame(obs, origin)
	if err != nil {
		return nil, err
	}
	local := make([]PosPhase, len(obs))
	for i, o := range obs {
		d := o.Pos.Sub(origin)
		local[i] = PosPhase{
			Pos:   geom.V3(d.Dot(u), d.Dot(v), 0),
			Theta: o.Theta,
		}
	}
	p, err := NewProfile(local, lambda)
	if err != nil {
		return nil, err
	}
	sys, err := BuildSystem(p, pairs, 3)
	if err != nil {
		return nil, err
	}
	sol, err := SolveSystem(sys, opts)
	if err != nil {
		return nil, err
	}
	if err := sol.RecoverMissingMedian(p, positiveSide); err != nil {
		return nil, err
	}
	est := origin.
		Add(u.Scale(sol.Position.X)).
		Add(v.Scale(sol.Position.Y)).
		Add(w.Scale(sol.Position.Z))
	sol.Position = est
	return sol, nil
}

// planeFrame fits an orthonormal in-plane basis (u, v) and normal w to the
// observation positions around origin. It returns ErrDegenerateGeometry when
// the points are collinear — a single straight line cannot fix a 3-D
// position (Sec. III-C-2).
func planeFrame(obs []PosPhase, origin geom.Vec3) (u, v, w geom.Vec3, err error) {
	u = obs[len(obs)-1].Pos.Sub(obs[0].Pos)
	if u.Norm() == 0 {
		// Closed trajectory (full circle): use the widest chord from the
		// first point instead.
		for _, o := range obs[1:] {
			if d := o.Pos.Sub(obs[0].Pos); d.Norm() > u.Norm() {
				u = d
			}
		}
	}
	if u.Norm() == 0 {
		return u, v, w, ErrDegenerateGeometry
	}
	u = u.Unit()
	// Find the direction with the largest out-of-u component.
	best := geom.Vec3{}
	bestNorm := 0.0
	for _, o := range obs {
		d := o.Pos.Sub(origin)
		perp := d.Sub(u.Scale(d.Dot(u)))
		if n := perp.Norm(); n > bestNorm {
			best, bestNorm = perp, n
		}
	}
	span := obs[len(obs)-1].Pos.Dist(obs[0].Pos)
	if span == 0 {
		span = 1
	}
	if bestNorm < 1e-9*span {
		return u, v, w, ErrDegenerateGeometry
	}
	v = best.Unit()
	w = u.Cross(v)
	return u, v, w, nil
}

// lineProfile is one scan line reduced to sorted (x, θ) samples plus the
// line's constant (y, z) offset.
type lineProfile struct {
	xs    []float64
	theta []float64
	y, z  float64
}

// newLineProfile sorts the samples of one line by x and averages duplicate
// positions.
func newLineProfile(obs []PosPhase) (*lineProfile, error) {
	if len(obs) < 2 {
		return nil, ErrTooFewObservations
	}
	idx := make([]int, len(obs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return obs[idx[a]].Pos.X < obs[idx[b]].Pos.X
	})
	lp := &lineProfile{}
	var ySum, zSum float64
	for _, i := range idx {
		o := obs[i]
		ySum += o.Pos.Y
		zSum += o.Pos.Z
		if n := len(lp.xs); n > 0 && o.Pos.X-lp.xs[n-1] < 1e-9 {
			// Average duplicates at (numerically) identical x.
			lp.theta[n-1] = (lp.theta[n-1] + o.Theta) / 2
			continue
		}
		lp.xs = append(lp.xs, o.Pos.X)
		lp.theta = append(lp.theta, o.Theta)
	}
	if len(lp.xs) < 2 {
		return nil, ErrTooFewObservations
	}
	lp.y = ySum / float64(len(obs))
	lp.z = zSum / float64(len(obs))
	return lp, nil
}

// sample interpolates θ at the grid positions.
func (lp *lineProfile) sample(grid []float64) ([]float64, error) {
	return dsp.LinearResample(lp.xs, lp.theta, grid)
}

// StructuredOptions configures the structured multi-line localization of
// Sec. IV-B: the x_i grid, the scanning range and the pairing interval x_o.
type StructuredOptions struct {
	// ScanRange restricts the grid to |x − center| ≤ ScanRange/2, where the
	// center is the midpoint of the usable overlap. Zero uses the full
	// overlap. This is the "scanning range" swept in Figs. 16–17.
	ScanRange float64
	// Interval is x_o, the pairing interval along the line for the
	// x-coordinate equations (Fig. 18 sweeps it).
	Interval float64
	// Intervals optionally combines several pairing intervals in one
	// system; when non-empty it supersedes Interval for the x-equations.
	// Long pairs capture the profile curvature that pins d_r, short pairs
	// keep the x-estimate crisp.
	Intervals []float64
	// GridStep is the spacing of the x_i grid; zero defaults to
	// Interval/5 (at least 5 mm).
	GridStep float64
	// Solve configures the least-squares estimation.
	Solve SolveOptions
}

// DefaultStructuredOptions matches the paper's defaults: scanning range
// 0.8 m, interval 0.2 m, weighted least squares.
func DefaultStructuredOptions() StructuredOptions {
	return StructuredOptions{
		ScanRange: 0.8,
		Interval:  0.2,
		Solve:     DefaultSolveOptions(),
	}
}

func (o StructuredOptions) gridStep() float64 {
	if o.GridStep > 0 {
		return o.GridStep
	}
	s := o.smallestInterval() / 5
	if s < 0.005 {
		s = 0.005
	}
	return s
}

// intervals returns the effective pairing intervals.
func (o StructuredOptions) intervals() []float64 {
	if len(o.Intervals) > 0 {
		return o.Intervals
	}
	return []float64{o.Interval}
}

func (o StructuredOptions) smallestInterval() float64 {
	ivs := o.intervals()
	min := ivs[0]
	for _, iv := range ivs[1:] {
		if iv < min {
			min = iv
		}
	}
	return min
}

// xPairs emits the along-line pairs for every configured interval over a
// grid of n points with the given step, using base as the index offset of
// the line's block in the stacked observation list.
func (o StructuredOptions) xPairs(n int, step float64, base int) []Pair {
	var out []Pair
	for _, iv := range o.intervals() {
		k := int(math.Round(iv / step))
		if k < 1 {
			k = 1
		}
		for g := 0; g+k < n; g++ {
			out = append(out, Pair{I: base + g, J: base + g + k})
		}
	}
	return out
}

// buildGrid computes the shared x_i grid over the usable overlap of the
// lines.
func buildGrid(opts StructuredOptions, lines ...*lineProfile) ([]float64, error) {
	for _, iv := range opts.intervals() {
		if iv <= 0 {
			return nil, fmt.Errorf("core: interval %v must be positive", iv)
		}
	}
	lo := math.Inf(-1)
	hi := math.Inf(1)
	for _, lp := range lines {
		lo = math.Max(lo, lp.xs[0])
		hi = math.Min(hi, lp.xs[len(lp.xs)-1])
	}
	if !(hi > lo) {
		return nil, ErrDegenerateGeometry
	}
	if opts.ScanRange > 0 {
		c := (lo + hi) / 2
		lo = math.Max(lo, c-opts.ScanRange/2)
		hi = math.Min(hi, c+opts.ScanRange/2)
	}
	step := opts.gridStep()
	n := int((hi-lo)/step) + 1
	if n < 4 {
		return nil, ErrTooFewObservations
	}
	grid := make([]float64, n)
	for i := range grid {
		grid[i] = lo + float64(i)*step
	}
	return grid, nil
}

// ThreeLineInput carries the per-line observations of a Fig. 11 scan. The
// phases of all three slices must share one continuous unwrapped profile:
// scan the lines in one continuous movement.
type ThreeLineInput struct {
	L1, L2, L3 []PosPhase
	Lambda     float64
}

// LocateThreeLine runs the full 3-D structured localization of
// Eqs. 10–12: for every grid position x_i it emits one x-equation pairing
// (P_{i,1}, P_{i+k,1}) along L1, one y-equation pairing (P_{i,1}, P_{i,3}),
// and one z-equation pairing (P_{i,1}, P_{i,2}), then solves the stacked
// system.
func LocateThreeLine(in ThreeLineInput, opts StructuredOptions) (*Solution, error) {
	l1, err := newLineProfile(in.L1)
	if err != nil {
		return nil, fmt.Errorf("L1: %w", err)
	}
	l2, err := newLineProfile(in.L2)
	if err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	l3, err := newLineProfile(in.L3)
	if err != nil {
		return nil, fmt.Errorf("L3: %w", err)
	}
	grid, err := buildGrid(opts, l1, l2, l3)
	if err != nil {
		return nil, err
	}
	t1, err := l1.sample(grid)
	if err != nil {
		return nil, err
	}
	t2, err := l2.sample(grid)
	if err != nil {
		return nil, err
	}
	t3, err := l3.sample(grid)
	if err != nil {
		return nil, err
	}

	n := len(grid)
	obs := make([]PosPhase, 0, 3*n)
	for g, x := range grid {
		obs = append(obs, PosPhase{Pos: geom.V3(x, l1.y, l1.z), Theta: t1[g]})
	}
	for g, x := range grid {
		obs = append(obs, PosPhase{Pos: geom.V3(x, l2.y, l2.z), Theta: t2[g]})
	}
	for g, x := range grid {
		obs = append(obs, PosPhase{Pos: geom.V3(x, l3.y, l3.z), Theta: t3[g]})
	}

	pairs := opts.xPairs(n, opts.gridStep(), 0) // x along L1
	if len(pairs) == 0 {
		return nil, fmt.Errorf("core: three-line scan shorter than its pairing interval: %w", ErrTooFewObservations)
	}
	for g := 0; g < n; g++ {
		pairs = append(pairs, Pair{I: g, J: 2*n + g}) // y: L1 vs L3
		pairs = append(pairs, Pair{I: g, J: n + g})   // z: L1 vs L2
	}

	p, err := NewProfileRef(obs, in.Lambda, n/2)
	if err != nil {
		return nil, err
	}
	sys, err := BuildSystem(p, pairs, 3)
	if err != nil {
		return nil, err
	}
	sol, err := SolveSystem(sys, opts.Solve)
	if err != nil {
		return nil, err
	}
	if !sol.FullyKnown() { // coincident lines pin neither y nor z
		return nil, fmt.Errorf("core: three-line scan leaves a coordinate unknown: %w", ErrDegenerateGeometry)
	}
	return sol, nil
}

// TwoLineInput carries the reduced two-line planar scan used for the 3-D
// lower-dimension experiments (Fig. 14a): both lines lie in the z = const
// plane, offset along y.
type TwoLineInput struct {
	L1, L2 []PosPhase
	Lambda float64
}

// LocateTwoLine runs the planar structured localization and recovers the
// out-of-plane z-coordinate from d_r. abovePlane selects the branch (the
// antenna above the tag trajectory, as the paper assumes).
func LocateTwoLine(in TwoLineInput, abovePlane bool, opts StructuredOptions) (*Solution, error) {
	l1, err := newLineProfile(in.L1)
	if err != nil {
		return nil, fmt.Errorf("L1: %w", err)
	}
	l2, err := newLineProfile(in.L2)
	if err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	grid, err := buildGrid(opts, l1, l2)
	if err != nil {
		return nil, err
	}
	t1, err := l1.sample(grid)
	if err != nil {
		return nil, err
	}
	t2, err := l2.sample(grid)
	if err != nil {
		return nil, err
	}
	n := len(grid)
	obs := make([]PosPhase, 0, 2*n)
	for g, x := range grid {
		obs = append(obs, PosPhase{Pos: geom.V3(x, l1.y, l1.z), Theta: t1[g]})
	}
	for g, x := range grid {
		obs = append(obs, PosPhase{Pos: geom.V3(x, l2.y, l2.z), Theta: t2[g]})
	}
	pairs := opts.xPairs(n, opts.gridStep(), 0)
	for g := 0; g < n; g++ {
		pairs = append(pairs, Pair{I: g, J: n + g})
	}
	p, err := NewProfileRef(obs, in.Lambda, n/2)
	if err != nil {
		return nil, err
	}
	sys, err := BuildSystem(p, pairs, 3)
	if err != nil {
		return nil, err
	}
	sol, err := SolveSystem(sys, opts.Solve)
	if err != nil {
		return nil, err
	}
	if err := sol.RecoverMissingMedian(p, abovePlane); err != nil {
		return nil, err
	}
	return sol, nil
}
