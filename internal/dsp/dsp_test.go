package dsp

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/rfid-lion/lion/internal/rf"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func sliceAlmostEq(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !almostEq(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

func TestUnwrapRecoversLinearRamp(t *testing.T) {
	// A linear phase ramp wrapped into [0,2π) must unwrap back to a ramp
	// (up to the initial value's branch).
	n := 500
	truth := make([]float64, n)
	wrapped := make([]float64, n)
	for i := range truth {
		truth[i] = 0.5 + 0.11*float64(i)
		wrapped[i] = rf.WrapPhase(truth[i])
	}
	un := Unwrap(wrapped)
	for i := range un {
		if !almostEq(un[i]-un[0], truth[i]-truth[0], 1e-9) {
			t.Fatalf("sample %d: unwrapped delta %v, want %v",
				i, un[i]-un[0], truth[i]-truth[0])
		}
	}
}

func TestUnwrapDescendingRamp(t *testing.T) {
	n := 300
	truth := make([]float64, n)
	wrapped := make([]float64, n)
	for i := range truth {
		truth[i] = 100 - 0.2*float64(i)
		wrapped[i] = rf.WrapPhase(truth[i])
	}
	un := Unwrap(wrapped)
	for i := range un {
		if !almostEq(un[i]-un[0], truth[i]-truth[0], 1e-9) {
			t.Fatalf("sample %d: unwrapped delta %v, want %v",
				i, un[i]-un[0], truth[i]-truth[0])
		}
	}
}

func TestUnwrapEdgeCases(t *testing.T) {
	if got := Unwrap(nil); len(got) != 0 {
		t.Errorf("Unwrap(nil) = %v", got)
	}
	if got := Unwrap([]float64{1.5}); !sliceAlmostEq(got, []float64{1.5}, 0) {
		t.Errorf("Unwrap(single) = %v", got)
	}
	// Input must not be modified.
	in := []float64{0.1, 6.2, 0.2}
	_ = Unwrap(in)
	if in[1] != 6.2 {
		t.Error("Unwrap mutated input")
	}
}

func TestUnwrapPropertyConsecutiveJumpsBelowPi(t *testing.T) {
	f := func(raw []float64) bool {
		in := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			in = append(in, rf.WrapPhase(x))
		}
		un := Unwrap(in)
		for i := 1; i < len(un); i++ {
			if math.Abs(un[i]-un[i-1]) >= math.Pi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnwrapPropertyWrapInverts(t *testing.T) {
	// Wrapping the unwrapped sequence returns the original wrapped values.
	f := func(raw []float64) bool {
		in := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			in = append(in, rf.WrapPhase(x))
		}
		back := Unwrap(in)
		for i := range in {
			d := math.Abs(rf.WrapPhase(back[i]) - in[i])
			if d > 1e-9 && math.Abs(d-2*math.Pi) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMovingAverage(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	got, err := MovingAverage(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 2, 3, 4, 4.5}
	if !sliceAlmostEq(got, want, 1e-12) {
		t.Errorf("MovingAverage = %v, want %v", got, want)
	}
	// Window 1 is the identity.
	id, err := MovingAverage(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sliceAlmostEq(id, xs, 0) {
		t.Errorf("window-1 = %v", id)
	}
}

// TestMovingAverageReducesJitter: an alternating 1, 0, 1, … sequence
// smooths to ~0.5 away from the truncated boundary windows.
func TestMovingAverageReducesJitter(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = 1
		}
	}
	out, err := MovingAverage(xs, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 90; i++ {
		if math.Abs(out[i]-0.5) > 0.1 {
			t.Fatalf("sample %d not smoothed: %v", i, out[i])
		}
	}
}

func TestMovingAverageValidation(t *testing.T) {
	if _, err := MovingAverage([]float64{1}, 0); !errors.Is(err, ErrBadWindow) {
		t.Errorf("window 0 err = %v", err)
	}
	if _, err := MovingAverage([]float64{1}, 2); !errors.Is(err, ErrBadWindow) {
		t.Errorf("even window err = %v", err)
	}
}

func TestMovingAverageReducesNoiseVariance(t *testing.T) {
	// Smoothing white noise must shrink its variance by roughly the window
	// size.
	n := 5000
	xs := make([]float64, n)
	seed := uint64(12345)
	for i := range xs {
		// Cheap deterministic pseudo-noise.
		seed = seed*6364136223846793005 + 1442695040888963407
		xs[i] = float64(int64(seed>>11))/float64(1<<52) - 0.5
	}
	sm, err := MovingAverage(xs, 9)
	if err != nil {
		t.Fatal(err)
	}
	varOf := func(v []float64) float64 {
		var m float64
		for _, x := range v {
			m += x
		}
		m /= float64(len(v))
		var s float64
		for _, x := range v {
			s += (x - m) * (x - m)
		}
		return s / float64(len(v))
	}
	if r := varOf(sm) / varOf(xs); r > 0.25 {
		t.Errorf("smoothing reduced variance only by factor %v", 1/r)
	}
}

func TestLinearResample(t *testing.T) {
	times := []float64{0, 1, 2}
	values := []float64{0, 10, 0}
	got, err := LinearResample(times, values, []float64{-1, 0, 0.5, 1.5, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 5, 5, 0, 0}
	if !sliceAlmostEq(got, want, 1e-12) {
		t.Errorf("resample = %v, want %v", got, want)
	}
}

func TestLinearResampleValidation(t *testing.T) {
	if _, err := LinearResample([]float64{0, 1}, []float64{0}, nil); !errors.Is(err, ErrMismatch) {
		t.Errorf("mismatch err = %v", err)
	}
	if _, err := LinearResample(nil, nil, nil); err == nil {
		t.Error("empty series accepted")
	}
	if _, err := LinearResample([]float64{0, 0}, []float64{1, 2}, nil); err == nil {
		t.Error("non-increasing times accepted")
	}
}

// TestUnwrapIntoMatchesUnwrap: the Into variant is bit-identical to Unwrap,
// reuses a caller buffer without reallocating, supports in-place aliasing,
// and grows a too-small destination.
func TestUnwrapIntoMatchesUnwrap(t *testing.T) {
	wrapped := make([]float64, 200)
	for i := range wrapped {
		wrapped[i] = rf.WrapPhase(0.37 * float64(i))
	}
	want := Unwrap(wrapped)

	buf := make([]float64, len(wrapped))
	got := UnwrapInto(buf, wrapped)
	if &got[0] != &buf[0] {
		t.Error("UnwrapInto reallocated despite sufficient capacity")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("UnwrapInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	// In-place: dst aliases the input.
	inPlace := append([]float64(nil), wrapped...)
	got = UnwrapInto(inPlace, inPlace)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("in-place UnwrapInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	// Growth: nil dst is legal and the result is still correct.
	got = UnwrapInto(nil, wrapped)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grown UnwrapInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if out := UnwrapInto(nil, nil); len(out) != 0 {
		t.Errorf("UnwrapInto(nil, nil) = %v, want empty", out)
	}
}

// TestMovingAverageIntoMatchesMovingAverage mirrors the Unwrap test for the
// smoothing filter (no aliasing allowed — the filter reads neighbours).
func TestMovingAverageIntoMatchesMovingAverage(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = math.Sin(0.1 * float64(i))
	}
	want, err := MovingAverage(xs, 9)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, len(xs))
	got, err := MovingAverageInto(buf, xs, 9)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[0] {
		t.Error("MovingAverageInto reallocated despite sufficient capacity")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MovingAverageInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := MovingAverageInto(buf, xs, 4); !errors.Is(err, ErrBadWindow) {
		t.Errorf("even window error = %v, want ErrBadWindow", err)
	}
}

// TestUnwrapHugeAndInfiniteJumps: a jump of ±Inf, or one so large that
// subtracting 2π leaves it unchanged, used to spin the unwrap loop forever.
// Unwrap must return, and a non-finite input must leave the output
// non-finite so that the solve's finiteness scan still rejects it.
func TestUnwrapHugeAndInfiniteJumps(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.Inf(-1), 1e20, -1e300} {
		got := Unwrap([]float64{0.1, v, 0.2, 0.3})
		if len(got) != 4 {
			t.Fatalf("%v: len %d", v, len(got))
		}
		finite := true
		for _, x := range got {
			finite = finite && !math.IsNaN(x) && !math.IsInf(x, 0)
		}
		if math.IsInf(v, 0) == finite {
			t.Errorf("jump to %v: output %v, finite %v", v, got, finite)
		}
	}
}

// TestUnwrapOneTurnPerWrappedJump pins the arithmetic of a wrapped sequence:
// each jump of at least π moves the offset by exactly one turn, so the
// output bits equal the running sum of ±2π steps.
func TestUnwrapOneTurnPerWrappedJump(t *testing.T) {
	in := []float64{6.2, 0.1, 6.25, 3.1, 6.2831, 0, math.Pi, 0}
	want := make([]float64, len(in))
	want[0] = in[0]
	offset := 0.0
	for i := 1; i < len(in); i++ {
		switch d := in[i] - in[i-1]; {
		case d >= math.Pi:
			offset -= 2 * math.Pi
		case d <= -math.Pi:
			offset += 2 * math.Pi
		}
		want[i] = in[i] + offset
	}
	got := Unwrap(in)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d: got %v, want %v", i, got[i], want[i])
		}
	}
}
