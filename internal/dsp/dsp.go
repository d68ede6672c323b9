// Package dsp implements the signal-preprocessing stage of LION
// (Sec. IV-A): phase unwrapping, moving-average smoothing and resampling.
package dsp

import (
	"errors"
	"math"
	"sort"
)

// Errors returned by the preprocessing functions.
var (
	ErrBadWindow = errors.New("dsp: window must be positive and odd")
	ErrMismatch  = errors.New("dsp: input slices must have equal length")
)

// Unwrap removes the modulo-2π jumps from a wrapped phase sequence.
// Whenever the jump between consecutive samples is at least π radians, it
// adds or subtracts multiples of 2π until the jump falls below π
// (Sec. IV-A-1). The input is not modified.
func Unwrap(wrapped []float64) []float64 {
	return UnwrapInto(make([]float64, len(wrapped)), wrapped)
}

// UnwrapInto is Unwrap writing into dst, which is grown as needed and
// returned resliced to len(wrapped). dst may alias wrapped (in-place
// unwrapping), and the arithmetic is identical to Unwrap's, so streamed
// callers reusing a buffer get bit-identical profiles with zero allocations
// in steady state.
func UnwrapInto(dst, wrapped []float64) []float64 {
	if cap(dst) < len(wrapped) {
		dst = make([]float64, len(wrapped))
	}
	dst = dst[:len(wrapped)]
	if len(wrapped) == 0 {
		return dst
	}
	prev := wrapped[0]
	dst[0] = prev
	offset := 0.0
	for i := 1; i < len(wrapped); i++ {
		cur := wrapped[i]
		if d := cur - prev; d >= math.Pi || d <= -math.Pi {
			// Whole turns to remove, in one step rather than a loop: a jump
			// of ±Inf, or one so large that subtracting 2π leaves it
			// unchanged, would never bring a loop below π. For the jumps of
			// a wrapped sequence (|d| < 2π) this is exactly one turn.
			offset -= 2 * math.Pi * math.Round(d/(2*math.Pi))
		}
		dst[i] = cur + offset
		prev = cur
	}
	return dst
}

// MovingAverage smooths xs with a centred moving-average filter of the given
// odd window length (Sec. IV-A-2). Windows are truncated at the boundaries
// so the output has the same length as the input. The input is not modified.
func MovingAverage(xs []float64, window int) ([]float64, error) {
	return MovingAverageInto(make([]float64, len(xs)), xs, window)
}

// MovingAverageInto is MovingAverage writing into dst, which is grown as
// needed and returned resliced to len(xs). dst must not alias xs: the filter
// reads neighbours on both sides of each output index.
func MovingAverageInto(dst, xs []float64, window int) ([]float64, error) {
	if window <= 0 || window%2 == 0 {
		return nil, ErrBadWindow
	}
	if cap(dst) < len(xs) {
		dst = make([]float64, len(xs))
	}
	out := dst[:len(xs)]
	half := window / 2
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= len(xs) {
			hi = len(xs) - 1
		}
		var s float64
		for j := lo; j <= hi; j++ {
			s += xs[j]
		}
		out[i] = s / float64(hi-lo+1)
	}
	return out, nil
}

// LinearResample interpolates the series (times, values) at the query
// instants. Times must be strictly increasing. Queries outside the range
// clamp to the boundary values.
func LinearResample(times, values, queries []float64) ([]float64, error) {
	if len(times) != len(values) {
		return nil, ErrMismatch
	}
	if len(times) == 0 {
		return nil, errors.New("dsp: empty series")
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			return nil, errors.New("dsp: times must be strictly increasing")
		}
	}
	out := make([]float64, len(queries))
	for qi, q := range queries {
		switch {
		case q <= times[0]:
			out[qi] = values[0]
		case q >= times[len(times)-1]:
			out[qi] = values[len(values)-1]
		default:
			i := sort.SearchFloat64s(times, q)
			// times[i-1] < q <= times[i]
			t0, t1 := times[i-1], times[i]
			frac := (q - t0) / (t1 - t0)
			out[qi] = values[i-1] + frac*(values[i]-values[i-1])
		}
	}
	return out, nil
}
