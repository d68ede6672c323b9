package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/mat"
	"github.com/rfid-lion/lion/internal/rf"
)

// LineWorkspace is the caller-owned scratch for Locate2DLineIntervalsInto:
// the line-frame profile, the pair list, the radical-line system and the
// SolveSystemInto scratch of one window solve. Once a window has sized it,
// no window up to that length allocates. Nothing carries over from one
// solve to the next except buffer capacity, so a workspace reused from a
// long window on a short one gives exactly what a fresh one would. A
// workspace must not be shared between goroutines without serialization.
//
// The zero value is ready to use.
type LineWorkspace struct {
	prof  Profile   // line-frame observations (pu, 0, 0) and their Δd
	pairs []Pair    // pairs of every interval, interval by interval
	a     mat.Dense // radical-line rows [α, β, ω]
	k     []float64 // right-hand sides κ
	sys   System
	solve SolveWorkspace
	dsc   []float64 // median-recovery discriminants
}

// Locate2DLineIntervalsInto is the workspace form of Locate2DLineIntervals:
// the same solve, bit for bit, with every intermediate buffer taken from ws
// and the result written into sol. The Solution's slices are appended into
// sol's own backing arrays, never aliased to ws, so callers may keep or
// change a Solution freely while ws serves later solves.
func Locate2DLineIntervalsInto(ws *LineWorkspace, obs []PosPhase, lambda float64, intervals []float64,
	positiveSide bool, opts SolveOptions, sol *Solution) error {
	if len(obs) < 4 {
		return ErrTooFewObservations
	}
	if err := checkIntervals(intervals); err != nil {
		return err
	}
	origin, u, v, err := lineFrame(obs)
	if err != nil {
		return err
	}
	if cap(ws.prof.Obs) < len(obs) {
		ws.prof.Obs = make([]PosPhase, 0, len(obs))
	}
	ws.prof.Obs = projectLine(ws.prof.Obs[:0], obs, origin, u)
	if most := len(obs) * len(intervals); cap(ws.pairs) < most {
		ws.pairs = make([]Pair, 0, most) // at most one pair per sample and interval
	}
	ws.pairs = ws.pairs[:0]
	for _, iv := range intervals {
		ws.pairs = appendSeparationPairs(ws.pairs, ws.prof.Obs, iv)
	}
	if len(ws.pairs) < 3 {
		return fmt.Errorf("core: intervals %v leave %d pairs: %w",
			intervals, len(ws.pairs), ErrTooFewObservations)
	}
	if err := ws.prof.reset(lambda, len(obs)/2); err != nil {
		return err
	}
	ws.a.Reshape(len(ws.pairs), 3)
	ws.k = growFloats(ws.k, len(ws.pairs))
	ws.prof.fillSystem(&ws.a, ws.k, ws.pairs, 2)
	ws.sys = System{A: &ws.a, K: ws.k, Dim: 2}
	if err := SolveSystemInto(&ws.solve, &ws.sys, opts, sol); err != nil {
		return err
	}
	if err := recoverLineMedian(sol, &ws.prof, positiveSide, &ws.dsc); err != nil {
		return err
	}
	// Map the line-frame estimate back into world coordinates.
	est := origin.XY().
		Add(u.Scale(sol.Position.X)).
		Add(v.Scale(sol.Position.Y))
	sol.Position = est.XYZ(origin.Z)
	return nil
}

// checkIntervals validates a list of pairing separations.
func checkIntervals(intervals []float64) error {
	if len(intervals) == 0 {
		return fmt.Errorf("core: at least one interval required")
	}
	for _, iv := range intervals {
		if iv <= 0 {
			return fmt.Errorf("core: interval %v must be positive", iv)
		}
	}
	return nil
}

// lineFrame returns the frame a line window is solved in: origin at the
// middle sample, û from the first sample to the last, v̂ = û rotated +90°.
// A window whose first and last samples coincide has no direction.
func lineFrame(win []PosPhase) (origin geom.Vec3, u, v geom.Vec2, err error) {
	dir := win[len(win)-1].Pos.XY().Sub(win[0].Pos.XY())
	if dir.Norm() == 0 {
		return origin, u, v, ErrDegenerateGeometry
	}
	u = dir.Unit()
	return win[len(win)/2].Pos, u, u.Perp(), nil
}

// projectLine appends obs projected onto the line through origin along u:
// position (pu, 0, 0), phase unchanged.
func projectLine(dst, obs []PosPhase, origin geom.Vec3, u geom.Vec2) []PosPhase {
	for _, o := range obs {
		pu := o.Pos.XY().Sub(origin.XY()).Dot(u)
		dst = append(dst, PosPhase{Pos: geom.V3(pu, 0, 0), Theta: o.Theta})
	}
	return dst
}

// appendSeparationPairs is SeparationPairs over line-frame observations,
// appending into out: each observation pairs with the first later one at
// least sep away, along a shared monotone second index. With y and z zero,
// √(d²) is exactly the Vec3 distance SeparationPairs measures.
func appendSeparationPairs(out []Pair, obs []PosPhase, sep float64) []Pair {
	n := len(obs)
	j := 0
	for i := 0; i < n; i++ {
		if j <= i {
			j = i + 1
		}
		for j < n {
			d := obs[i].Pos.X - obs[j].Pos.X
			if math.Sqrt(d*d) >= sep {
				break
			}
			j++
		}
		if j >= n {
			break
		}
		out = append(out, Pair{I: i, J: j})
	}
	return out
}

// appendDeltaD appends Δd for each observation relative to the reference
// phase (Eq. 6).
func appendDeltaD(dst []float64, obs []PosPhase, refTheta, lambda float64) []float64 {
	for _, o := range obs {
		dst = append(dst, rf.DistanceOfPhaseDelta(o.Theta-refTheta, lambda))
	}
	return dst
}

// checkFinite rejects the first observation with a non-finite position or
// phase.
func checkFinite(obs []PosPhase) error {
	for i, o := range obs {
		if !o.Pos.IsFinite() || math.IsNaN(o.Theta) || math.IsInf(o.Theta, 0) {
			return fmt.Errorf("core: observation %d is %v: %w", i, o, ErrNonFiniteInput)
		}
	}
	return nil
}

// leastSquaresErr maps a failed initial least-squares solve onto the
// package's errors.
func leastSquaresErr(err error) error {
	if errors.Is(err, mat.ErrSingular) {
		return fmt.Errorf("%w: %v", ErrDegenerateGeometry, err)
	}
	return fmt.Errorf("least squares: %w", err)
}

// onesInto returns s resized to n with every entry 1.
func onesInto(s []float64, n int) []float64 {
	s = growFloats(s, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// recoverLineMedian is RecoverMissingMedian for a line-frame solve (Dim 2,
// y unknown, every observation at y = 0, at least four of them): the same
// discriminants and the same interpolated median as stats.Percentile, found
// by selection instead of a full sort. The order statistics a selection
// finds are the values a sort puts there, so the result is bit-identical —
// in O(n) instead of O(n log n) and without allocating, with *dsc as
// scratch.
func recoverLineMedian(sol *Solution, p *Profile, positive bool, dsc *[]float64) error {
	n := p.Len()
	d := growFloats(*dsc, n)
	*dsc = d
	for t := range d {
		dt := sol.RefDistance + p.deltaD[t]
		dx := sol.Position.X - p.Obs[t].Pos.X
		d[t] = dt*dt - dx*dx
	}
	rank := 50.0 / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	quickselectFloat(d, lo)
	med := d[lo]
	if lo != hi {
		vhi := d[lo+1]
		for _, x := range d[lo+2:] {
			if x < vhi {
				vhi = x
			}
		}
		frac := rank - float64(lo)
		med = d[lo]*(1-frac) + vhi*frac
	}
	if med < 0 {
		if med < -0.02*sol.RefDistance*sol.RefDistance {
			return ErrNoSolution
		}
		med = 0
	}
	off := math.Sqrt(med)
	if !positive {
		off = -off
	}
	sol.Position.Y = p.Obs[0].Pos.Y + off
	sol.Known[1] = true
	return nil
}

// quickselectFloat rearranges xs in place so xs[k] holds the value a full
// ascending sort would put there, with xs[:k] ≤ xs[k] ≤ xs[k+1:]. Hoare
// partitioning with median-of-three pivots; O(len(xs)) expected, zero
// allocations.
func quickselectFloat(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return // xs[j+1 : i] all equal the pivot, k among them
		}
	}
}
