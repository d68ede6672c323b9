package health

import (
	"math"
	"testing"
)

func TestBaselineWindowStats(t *testing.T) {
	b := newBaseline(4)
	for _, v := range []float64{1, 2, 3, 4} {
		b.add(v)
	}
	if got := b.mean(); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("mean = %v, want 2.5", got)
	}
	wantStd := math.Sqrt(1.25) // population std of {1,2,3,4}
	if got := b.std(); math.Abs(got-wantStd) > 1e-12 {
		t.Errorf("std = %v, want %v", got, wantStd)
	}
	// Ring eviction: pushing 5 and 6 drops 1 and 2.
	b.add(5)
	b.add(6)
	if got := b.mean(); math.Abs(got-4.5) > 1e-12 {
		t.Errorf("mean after eviction = %v, want 4.5", got)
	}
}

func TestBaselineZScoreWarmupAndDegenerate(t *testing.T) {
	b := newBaseline(16)
	for i := 0; i < 7; i++ {
		b.add(float64(i))
	}
	if _, ok := b.zscore(100, 8); ok {
		t.Error("zscore reported established before minSamples points")
	}
	b.add(7)
	z, ok := b.zscore(b.mean(), 8)
	if !ok || z != 0 {
		t.Errorf("zscore(mean) = %v, %v; want 0, true", z, ok)
	}
	// Constant window: zero spread must disable the z-score, not divide by
	// zero.
	c := newBaseline(8)
	for i := 0; i < 8; i++ {
		c.add(3)
	}
	if _, ok := c.zscore(4, 8); ok {
		t.Error("zscore reported established on a zero-spread window")
	}
}
