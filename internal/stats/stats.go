// Package stats provides the small descriptive-statistics toolkit used by
// the experiment harness: means, standard deviations, percentiles, CDFs,
// histograms, and a deterministic random source for reproducible
// simulations.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned when a statistic of an empty sample is requested.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (divisor n), or 0 for
// samples with fewer than one element.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// SampleVariance returns the unbiased sample variance (divisor n−1). It
// returns 0 for samples with fewer than two elements.
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// MeanStd returns the mean and population standard deviation in one pass
// over the data (Welford's algorithm).
func MeanStd(xs []float64) (mean, std float64) {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.MeanStd()
}

// Welford is the running form of MeanStd: one Add per value, in order, gives
// bit for bit what MeanStd returns for the same sequence. Loops that already
// pass over their data, such as the IRLS residual pass in package mat, use
// it to summarise without a second pass. The zero value is empty.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the running mean and sum of squared deviations.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// MeanStd returns the mean and population standard deviation of the values
// added so far; both are 0 when none were.
func (w *Welford) MeanStd() (mean, std float64) {
	if w.n > 0 {
		std = math.Sqrt(w.m2 / float64(w.n))
	}
	return w.mean, std
}

// Min returns the smallest element. It returns ErrEmpty for empty input.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element. It returns ErrEmpty for empty input.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Percentile returns the p-th percentile (p in [0, 100]) of xs using linear
// interpolation between closest ranks. The input is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of [0,100]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the 50th percentile.
func Median(xs []float64) (float64, error) { return Percentile(xs, 50) }

// Summary bundles the descriptive statistics the experiment tables report.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	P25    float64
	Median float64
	P75    float64
	P90    float64
	Max    float64
}

// Summarize computes a Summary of xs. It returns ErrEmpty for empty input.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	mean, std := MeanStd(xs)
	mn, _ := Min(xs)
	mx, _ := Max(xs)
	p25, _ := Percentile(xs, 25)
	med, _ := Median(xs)
	p75, _ := Percentile(xs, 75)
	p90, _ := Percentile(xs, 90)
	return Summary{
		N:      len(xs),
		Mean:   mean,
		Std:    std,
		Min:    mn,
		P25:    p25,
		Median: med,
		P75:    p75,
		P90:    p90,
		Max:    mx,
	}, nil
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	P float64 // cumulative probability in (0, 1]
}

// ECDF returns the empirical cumulative distribution function of xs as a
// sorted list of points. Duplicate values collapse to the highest
// probability.
func ECDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	out := make([]CDFPoint, 0, len(sorted))
	for i, x := range sorted {
		p := float64(i+1) / n
		if len(out) > 0 && out[len(out)-1].X == x {
			out[len(out)-1].P = p
			continue
		}
		out = append(out, CDFPoint{X: x, P: p})
	}
	return out
}

// Histogram bins xs into nbins equal-width bins over [min, max] and returns
// the bin edges (nbins+1 values) and counts (nbins values).
func Histogram(xs []float64, nbins int) (edges []float64, counts []int, err error) {
	if len(xs) == 0 {
		return nil, nil, ErrEmpty
	}
	if nbins <= 0 {
		return nil, nil, errors.New("stats: nbins must be positive")
	}
	mn, _ := Min(xs)
	mx, _ := Max(xs)
	if mn == mx {
		mx = mn + 1
	}
	edges = make([]float64, nbins+1)
	width := (mx - mn) / float64(nbins)
	for i := range edges {
		edges[i] = mn + float64(i)*width
	}
	counts = make([]int, nbins)
	for _, x := range xs {
		b := int((x - mn) / width)
		if b >= nbins {
			b = nbins - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	return edges, counts, nil
}

// RMS returns the root mean square of xs.
func RMS(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x * x
	}
	return math.Sqrt(s / float64(len(xs)))
}

// MeanAbs returns the mean absolute value of xs.
func MeanAbs(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Abs(x)
	}
	return s / float64(len(xs))
}
