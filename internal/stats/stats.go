// Package stats provides the small statistics toolkit the pipeline shares:
// means, standard deviations, percentiles, the HDR latency histogram Hist,
// the bounded recent-window Ring, and a deterministic random source for
// reproducible simulations.
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
