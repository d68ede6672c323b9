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
