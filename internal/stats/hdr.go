package stats

import "math"

// Hist is an HDR-style log-linear histogram for latency-like positive
// values, built for high-rate recording: Record is a handful of integer
// operations into a fixed bucket array — no allocation, no sorting, no
// sampling window to overflow — so a load generator can record hundreds of
// thousands of observations per second without the measurement distorting
// the workload it measures. obs.Histogram answers its windowed quantiles
// from two of these, behind its own lock.
//
// Layout: values are bucketed into octaves (powers of two) starting at
// histMin, each octave split into histSub linear sub-buckets, giving a
// constant relative error of 1/histSub (~3%) across the whole range —
// the same trick as HdrHistogram's bucket/sub-bucket split. Values below
// histMin land in a dedicated underflow bucket (recorded as histMin);
// values beyond the top land in an overflow bucket (recorded at the top
// bound). The exact maximum is tracked separately so tail quantiles never
// under-report the worst observation past bucket resolution.
//
// Hist is not safe for concurrent use. The intended high-rate pattern is
// one Hist per worker, merged with Merge after the run — merging is exact
// (bucket counts add).
type Hist struct {
	counts [histBuckets]uint64
	count  uint64
	sum    float64
	max    float64
	min    float64
}

const (
	// histMin is the smallest resolvable value, 1 µs in seconds.
	histMin = 1e-6
	// histSub is the linear sub-bucket count per octave; relative
	// quantile error is bounded by 1/histSub.
	histSub = 32
	// histOctaves spans histMin × 2^28 ≈ 268 s, comfortably past any
	// latency or staleness this system reports.
	histOctaves = 28
	// histBuckets adds the underflow (index 0) and overflow (last) buckets.
	histBuckets = histOctaves*histSub + 2
	// histMax is the top of the last octave; values at or above it, +Inf
	// included, land in the overflow bucket.
	histMax = histMin * (1 << histOctaves)
)

// histIndex maps a value to its bucket index.
func histIndex(v float64) int {
	if v < histMin {
		return 0
	}
	// Checked before the division: v/histMin overflows to +Inf near
	// MaxFloat64, and Frexp(+Inf) reports exponent 0.
	if v >= histMax {
		return histBuckets - 1
	}
	// frac in [0.5, 1), exp such that v = frac × 2^exp.
	frac, exp := math.Frexp(v / histMin)
	// Octave o = floor(log2(v/histMin)) = exp − 1; sub-bucket from the
	// mantissa: frac×2 in [1, 2) → (frac×2 − 1) × histSub in [0, histSub).
	// A quotient that rounds up to 2^histOctaves gives o = histOctaves,
	// sub = 0: the overflow index.
	o := exp - 1
	sub := int((frac*2 - 1) * histSub)
	if sub >= histSub { // guard the frac == 1-ulp edge
		sub = histSub - 1
	}
	return 1 + o*histSub + sub
}

// histBound returns the upper bound of bucket i (the value Record clamps
// into it), used as the quantile estimate for observations in that bucket.
func histBound(i int) float64 {
	if i <= 0 {
		return histMin
	}
	if i >= histBuckets-1 {
		return histMax
	}
	i--
	o, sub := i/histSub, i%histSub
	// Bucket upper edge: histMin × 2^o × (1 + (sub+1)/histSub).
	return histMin * math.Exp2(float64(o)) * (1 + float64(sub+1)/histSub)
}

// Record adds one observation. Negative and NaN values are recorded as the
// minimum resolvable value (they indicate a clock anomaly, not a latency,
// and must not poison the distribution with NaN).
func (h *Hist) Record(v float64) {
	if math.IsNaN(v) || v < 0 {
		v = 0
	}
	h.counts[histIndex(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v > h.max {
		h.max = v
	}
	if h.count == 1 || v < h.min {
		h.min = v
	}
}

// Count returns the number of recorded observations.
func (h *Hist) Count() uint64 { return h.count }

// Sum returns the sum of recorded observations.
func (h *Hist) Sum() float64 { return h.sum }

// Mean returns the mean observation, or 0 when empty.
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the exact largest recorded observation, or 0 when empty.
func (h *Hist) Max() float64 { return h.max }

// Min returns the exact smallest recorded observation, or 0 when empty.
func (h *Hist) Min() float64 { return h.min }

// Quantile returns the q-th quantile (q in [0, 1]) as the upper bound of
// the bucket holding the q-th observation — a ≤3% overestimate by
// construction, never an underestimate beyond bucket resolution. Every
// answer is clamped to the exact tracked minimum and maximum, so the first
// and last ranks are exact; ok is false when the histogram is empty or q is
// out of range.
func (h *Hist) Quantile(q float64) (v float64, ok bool) {
	if h.count == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return 0, false
	}
	// Rank of the target observation, 1-based, ceil(q×n); the first is the
	// tracked minimum itself.
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank <= 1 {
		return h.min, true
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i]
		if seen >= rank {
			if i == histBuckets-1 {
				// Overflow bucket: the bound is meaningless, the exact
				// tracked maximum is the only honest answer.
				return h.max, true
			}
			b := histBound(i)
			if b > h.max {
				b = h.max
			}
			if b < h.min {
				b = h.min
			}
			return b, true
		}
	}
	return h.max, true // unreachable: seen ends at h.count ≥ rank
}

// Merge adds other's observations into h. Bucket counts add exactly, so a
// merged histogram reports the same quantiles as one that recorded every
// observation itself.
func (h *Hist) Merge(other *Hist) {
	if other == nil || other.count == 0 {
		return
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	if h.count == 0 || other.max > h.max {
		h.max = other.max
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	h.count += other.count
	h.sum += other.sum
}

// Reset returns the histogram to its empty state without releasing memory.
func (h *Hist) Reset() {
	*h = Hist{}
}
