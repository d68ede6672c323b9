package geom

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vec2AlmostEq(a, b Vec2, tol float64) bool {
	return almostEq(a.X, b.X, tol) && almostEq(a.Y, b.Y, tol)
}

func vec3AlmostEq(a, b Vec3, tol float64) bool {
	return almostEq(a.X, b.X, tol) && almostEq(a.Y, b.Y, tol) && almostEq(a.Z, b.Z, tol)
}

func TestVec2Arithmetic(t *testing.T) {
	tests := []struct {
		name string
		got  Vec2
		want Vec2
	}{
		{"add", V2(1, 2).Add(V2(3, -4)), V2(4, -2)},
		{"sub", V2(1, 2).Sub(V2(3, -4)), V2(-2, 6)},
		{"scale", V2(1, -2).Scale(2.5), V2(2.5, -5)},
		{"perp", V2(1, 0).Perp(), V2(0, 1)},
		{"lerp0", V2(1, 1).Lerp(V2(3, 5), 0), V2(1, 1)},
		{"lerp1", V2(1, 1).Lerp(V2(3, 5), 1), V2(3, 5)},
		{"lerpHalf", V2(1, 1).Lerp(V2(3, 5), 0.5), V2(2, 3)},
		{"rotate90", V2(1, 0).Rotate(math.Pi / 2), V2(0, 1)},
		{"unit", V2(3, 4).Unit(), V2(0.6, 0.8)},
		{"unitZero", V2(0, 0).Unit(), V2(0, 0)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !vec2AlmostEq(tt.got, tt.want, eps) {
				t.Errorf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestVec2DotCrossNorm(t *testing.T) {
	if got := V2(1, 2).Dot(V2(3, 4)); got != 11 {
		t.Errorf("Dot = %v, want 11", got)
	}
	if got := V2(1, 0).Cross(V2(0, 1)); got != 1 {
		t.Errorf("Cross = %v, want 1", got)
	}
	if got := V2(3, 4).Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := V2(3, 4).NormSq(); got != 25 {
		t.Errorf("NormSq = %v, want 25", got)
	}
	if got := V2(1, 1).Dist(V2(4, 5)); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
}

func TestVec2Angle(t *testing.T) {
	tests := []struct {
		v    Vec2
		want float64
	}{
		{V2(1, 0), 0},
		{V2(0, 1), math.Pi / 2},
		{V2(-1, 0), math.Pi},
		{V2(0, -1), -math.Pi / 2},
	}
	for _, tt := range tests {
		if got := tt.v.Angle(); !almostEq(got, tt.want, eps) {
			t.Errorf("Angle(%v) = %v, want %v", tt.v, got, tt.want)
		}
	}
}

func TestVec2IsFinite(t *testing.T) {
	if !V2(1, 2).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if V2(math.NaN(), 0).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if V2(0, math.Inf(1)).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestVec3Arithmetic(t *testing.T) {
	a, b := V3(1, 2, 3), V3(-4, 5, 0.5)
	if got, want := a.Add(b), V3(-3, 7, 3.5); !vec3AlmostEq(got, want, eps) {
		t.Errorf("Add = %v, want %v", got, want)
	}
	if got, want := a.Sub(b), V3(5, -3, 2.5); !vec3AlmostEq(got, want, eps) {
		t.Errorf("Sub = %v, want %v", got, want)
	}
	if got, want := a.Scale(2), V3(2, 4, 6); !vec3AlmostEq(got, want, eps) {
		t.Errorf("Scale = %v, want %v", got, want)
	}
	if got := a.Dot(b); !almostEq(got, -4+10+1.5, eps) {
		t.Errorf("Dot = %v", got)
	}
}

func TestVec3Cross(t *testing.T) {
	got := V3(1, 0, 0).Cross(V3(0, 1, 0))
	if !vec3AlmostEq(got, V3(0, 0, 1), eps) {
		t.Errorf("x cross y = %v, want (0,0,1)", got)
	}
	// Cross product is perpendicular to both operands.
	a, b := V3(1, 2, 3), V3(-2, 0.5, 4)
	c := a.Cross(b)
	if !almostEq(c.Dot(a), 0, eps) || !almostEq(c.Dot(b), 0, eps) {
		t.Errorf("cross product not perpendicular: %v", c)
	}
}

func TestVec3Projection(t *testing.T) {
	v := V3(1, 2, 3)
	if got := v.XY(); got != V2(1, 2) {
		t.Errorf("XY = %v", got)
	}
	if got := V2(1, 2).XYZ(7); got != V3(1, 2, 7) {
		t.Errorf("XYZ = %v", got)
	}
}

func TestVec3IsFinite(t *testing.T) {
	if !V3(1, 2, 3).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	for _, v := range []Vec3{
		{math.NaN(), 0, 0}, {0, math.Inf(-1), 0}, {0, 0, math.NaN()},
	} {
		if v.IsFinite() {
			t.Errorf("%v reported finite", v)
		}
	}
}

// clamp keeps quick-generated floats in a numerically sane range.
func clamp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	return math.Mod(x, 1e6)
}

func TestVec2PropertyDotSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a := V2(clamp(ax), clamp(ay))
		b := V2(clamp(bx), clamp(by))
		return a.Dot(b) == b.Dot(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVec2PropertyCrossAntisymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a := V2(clamp(ax), clamp(ay))
		b := V2(clamp(bx), clamp(by))
		return a.Cross(b) == -b.Cross(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVec2PropertyTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a := V2(clamp(ax), clamp(ay))
		b := V2(clamp(bx), clamp(by))
		return a.Add(b).Norm() <= a.Norm()+b.Norm()+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVec3PropertyCrossPerpendicular(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V3(clamp(ax), clamp(ay), clamp(az))
		b := V3(clamp(bx), clamp(by), clamp(bz))
		c := a.Cross(b)
		scale := a.Norm() * b.Norm()
		if scale == 0 {
			return true
		}
		return math.Abs(c.Dot(a)) <= 1e-6*scale*scale &&
			math.Abs(c.Dot(b)) <= 1e-6*scale*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVec2PropertyRotatePreservesNorm(t *testing.T) {
	f := func(ax, ay, rad float64) bool {
		a := V2(clamp(ax), clamp(ay))
		r := a.Rotate(clamp(rad))
		return math.Abs(r.Norm()-a.Norm()) <= 1e-6*(1+a.Norm())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseVec3(t *testing.T) {
	tests := []struct {
		in      string
		want    Vec3
		wantErr bool
	}{
		{"1,2,3", V3(1, 2, 3), false},
		{" 0.5 , -0.25 , 0 ", V3(0.5, -0.25, 0), false},
		{"1,2", Vec3{}, true},
		{"1,2,3,4", Vec3{}, true},
		{"a,2,3", Vec3{}, true},
		{"nan,0,inf", Vec3{}, true},
		{"0,NaN,0", Vec3{}, true},
		{"0,0,-Inf", Vec3{}, true},
		{"+inf,0,0", Vec3{}, true},
		{"1e400,0,0", Vec3{}, true}, // overflows to ±Inf: strconv reports ErrRange
	}
	for _, tt := range tests {
		got, err := ParseVec3(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseVec3(%q) err = %v", tt.in, err)
			continue
		}
		if !tt.wantErr && got != tt.want {
			t.Errorf("ParseVec3(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}
