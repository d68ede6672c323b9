package rf

import (
	"math"
	"testing"
)

// wrapPhaseMod is WrapPhase as math.Mod alone computes it, without the
// skip for angles already inside one turn.
func wrapPhaseMod(theta float64) float64 {
	t := math.Mod(theta, 2*math.Pi)
	if t < 0 {
		t += 2 * math.Pi
		if t >= 2*math.Pi {
			t = 0
		}
	}
	return t
}

// FuzzWrapPhase checks the wrap invariants over arbitrary angles: WrapPhase
// agrees bit for bit with the math.Mod formula (NaN and ±Inf included), the
// result lies in [0, 2π), wrapping is idempotent (a second wrap is exactly
// the identity), and the signed variant is the same angle expressed in
// (−π, π].
func FuzzWrapPhase(f *testing.F) {
	turn := 2 * math.Pi
	for _, seed := range []float64{
		0, math.Copysign(0, -1), 1, -1, math.Pi, -math.Pi, turn, -turn,
		math.Nextafter(turn, 0), math.Nextafter(turn, 7),
		math.Nextafter(-turn, 0), math.Nextafter(-turn, -7),
		6.3, -6.3, 1e9, -1e9, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
		1e-300, -1e-300, 4 * math.Pi, math.Nextafter(0, -1),
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, theta float64) {
		if got, want := WrapPhase(theta), wrapPhaseMod(theta); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("WrapPhase(%v) = %v (%#x), math.Mod formula %v (%#x)",
				theta, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			return // NaN out, checked above
		}
		w := WrapPhase(theta)
		if !(w >= 0 && w < 2*math.Pi) {
			t.Fatalf("WrapPhase(%v) = %v outside [0, 2π)", theta, w)
		}
		if ww := WrapPhase(w); ww != w {
			t.Fatalf("double wrap not idempotent: WrapPhase(%v) = %v, then %v", theta, w, ww)
		}
		s := WrapPhaseSigned(theta)
		if !(s > -math.Pi && s <= math.Pi) {
			t.Fatalf("WrapPhaseSigned(%v) = %v outside (−π, π]", theta, s)
		}
		// The signed and unsigned wraps must be the same angle: they differ
		// by exactly 0 or 2π, and re-wrapping the signed value recovers w.
		switch {
		case s == w, s == w-2*math.Pi:
		default:
			t.Fatalf("signed wrap %v inconsistent with unsigned %v (input %v)", s, w, theta)
		}
		if back := WrapPhase(s); back != w {
			t.Fatalf("WrapPhase(WrapPhaseSigned(%v)) = %v, want %v", theta, back, w)
		}
	})
}
