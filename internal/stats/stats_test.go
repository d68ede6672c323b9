package stats

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance(single) = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tt.p, err)
		}
		if !almostEq(got, tt.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := Percentile(nil, 50); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("negative percentile accepted")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("percentile > 100 accepted")
	}
	single, err := Percentile([]float64{7}, 33)
	if err != nil || single != 7 {
		t.Errorf("single-element percentile = %v, %v", single, err)
	}
	// Input must not be reordered.
	orig := []float64{5, 1, 3}
	if _, err := Percentile(orig, 50); err != nil {
		t.Fatal(err)
	}
	if orig[0] != 5 || orig[1] != 1 || orig[2] != 3 {
		t.Error("Percentile mutated its input")
	}
}

func TestRMSAndMeanAbs(t *testing.T) {
	if got := RMS([]float64{3, 4}); !almostEq(got, math.Sqrt(12.5), 1e-12) {
		t.Errorf("RMS = %v", got)
	}
	if got := MeanAbs([]float64{-3, 3}); got != 3 {
		t.Errorf("MeanAbs = %v", got)
	}
	if RMS(nil) != 0 || MeanAbs(nil) != 0 {
		t.Error("empty RMS/MeanAbs not zero")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(42).Fork().Float64() == c.Float64() {
			continue
		}
		same = false
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGUniformRange(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(-2, 3)
		if v < -2 || v >= 3 {
			t.Fatalf("Uniform out of range: %v", v)
		}
		a := g.Angle()
		if a < 0 || a >= 2*math.Pi {
			t.Fatalf("Angle out of range: %v", a)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	g := NewRNG(7)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = g.Normal(2, 0.5)
	}
	m, s := Mean(xs), StdDev(xs)
	if math.Abs(m-2) > 0.02 {
		t.Errorf("Normal mean = %v, want ~2", m)
	}
	if math.Abs(s-0.5) > 0.02 {
		t.Errorf("Normal std = %v, want ~0.5", s)
	}
}

func TestRNGFork(t *testing.T) {
	g := NewRNG(5)
	f1 := g.Fork()
	f2 := g.Fork()
	if f1.Float64() == f2.Float64() && f1.Float64() == f2.Float64() {
		t.Error("forked streams identical")
	}
}

// Property: mean lies within [min, max].
func TestMeanPropertyBounded(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= slices.Min(xs)-1e-9 && m <= slices.Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
