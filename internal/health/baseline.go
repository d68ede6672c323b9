package health

import (
	"math"

	"github.com/rfid-lion/lion/internal/stats"
)

// baseline maintains a rolling picture of one signal for one scope: a
// fixed-size window with O(1) running sums, from which deviation rules take
// z-scores.
// A persistent shift is absorbed by the window over time — baselines define
// "normal" as the recent past, so deviation alerts catch the transition,
// not the steady state; pair them with static rules for absolute limits.
type baseline struct {
	win        stats.Ring[float64]
	sum, sumsq float64
}

func newBaseline(window int) *baseline {
	return &baseline{win: stats.NewRing[float64](window)}
}

// add records one observation.
func (b *baseline) add(v float64) {
	if old, evicted := b.win.Push(v); evicted {
		b.sum -= old
		b.sumsq -= old * old
	}
	b.sum += v
	b.sumsq += v * v
}

// mean returns the mean of the retained window, or 0 when empty.
func (b *baseline) mean() float64 {
	if b.win.Len() == 0 {
		return 0
	}
	return b.sum / float64(b.win.Len())
}

// std returns the population standard deviation of the retained window.
func (b *baseline) std() float64 {
	n := b.win.Len()
	if n == 0 {
		return 0
	}
	m := b.mean()
	// Running-sum cancellation can push the variance a hair below zero.
	v := b.sumsq/float64(n) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// zscore returns how many window standard deviations v sits from the window
// mean. ok is false while the window is still warming up (fewer than
// minSamples points) or when the window is degenerate (zero spread), so a
// deviation rule cannot fire off an unestablished baseline.
func (b *baseline) zscore(v float64, minSamples int) (z float64, ok bool) {
	if b.win.Len() < minSamples {
		return 0, false
	}
	sd := b.std()
	if sd == 0 {
		return 0, false
	}
	return (v - b.mean()) / sd, true
}
