package geom

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoIntersection is returned when two geometric objects do not intersect
// (or are parallel / coincident so that no unique intersection exists).
var ErrNoIntersection = errors.New("geom: no unique intersection")

// Line2 is an infinite line in the plane in implicit form A·x + B·y = C.
// The coefficient pair (A, B) is the line normal; it need not be normalised.
type Line2 struct {
	A, B, C float64
}

// LineThrough returns the line through two distinct points p and q.
func LineThrough(p, q Vec2) Line2 {
	d := q.Sub(p)
	// Normal is perpendicular to the direction.
	n := d.Perp()
	return Line2{A: n.X, B: n.Y, C: n.Dot(p)}
}

// Normalize scales the line so that the normal (A, B) has unit length.
// Degenerate lines (A==B==0) are returned unchanged.
func (l Line2) Normalize() Line2 {
	n := math.Hypot(l.A, l.B)
	if n == 0 {
		return l
	}
	return Line2{l.A / n, l.B / n, l.C / n}
}

// IsDegenerate reports whether the line has a zero normal and therefore does
// not describe a line at all.
func (l Line2) IsDegenerate() bool { return l.A == 0 && l.B == 0 }

// Eval returns A·x + B·y − C, the signed (unnormalised) residual of p.
func (l Line2) Eval(p Vec2) float64 { return l.A*p.X + l.B*p.Y - l.C }

// Dist returns the Euclidean distance from p to the line.
func (l Line2) Dist(p Vec2) float64 {
	n := math.Hypot(l.A, l.B)
	if n == 0 {
		return math.Inf(1)
	}
	return math.Abs(l.Eval(p)) / n
}

// Contains reports whether p lies on the line within tolerance tol (distance
// in the same units as the coordinates).
func (l Line2) Contains(p Vec2, tol float64) bool { return l.Dist(p) <= tol }

// Direction returns a unit vector along the line.
func (l Line2) Direction() Vec2 { return Vec2{-l.B, l.A}.Unit() }

// Intersect returns the unique intersection point of two lines. It returns
// ErrNoIntersection when the lines are parallel or coincident.
func (l Line2) Intersect(m Line2) (Vec2, error) {
	det := l.A*m.B - l.B*m.A
	scale := math.Max(math.Hypot(l.A, l.B), 1) * math.Max(math.Hypot(m.A, m.B), 1)
	if math.Abs(det) <= 1e-14*scale {
		return Vec2{}, ErrNoIntersection
	}
	x := (l.C*m.B - l.B*m.C) / det
	y := (l.A*m.C - l.C*m.A) / det
	return Vec2{x, y}, nil
}

// Project returns the orthogonal projection of p onto the line.
func (l Line2) Project(p Vec2) Vec2 {
	n := Vec2{l.A, l.B}
	nn := n.NormSq()
	if nn == 0 {
		return p
	}
	t := l.Eval(p) / nn
	return p.Sub(n.Scale(t))
}

// String implements fmt.Stringer.
func (l Line2) String() string {
	return fmt.Sprintf("%.6g*x + %.6g*y = %.6g", l.A, l.B, l.C)
}

// Segment2 is a directed line segment in the plane.
type Segment2 struct {
	From, To Vec2
}

// Length returns the segment length.
func (s Segment2) Length() float64 { return s.From.Dist(s.To) }

// At returns the point at parameter t in [0, 1] along the segment.
func (s Segment2) At(t float64) Vec2 { return s.From.Lerp(s.To, t) }

// Midpoint returns the segment midpoint.
func (s Segment2) Midpoint() Vec2 { return s.At(0.5) }

// Line returns the supporting infinite line.
func (s Segment2) Line() Line2 { return LineThrough(s.From, s.To) }

// Segment3 is a directed line segment in space.
type Segment3 struct {
	From, To Vec3
}

// Length returns the segment length.
func (s Segment3) Length() float64 { return s.From.Dist(s.To) }

// At returns the point at parameter t in [0, 1] along the segment.
func (s Segment3) At(t float64) Vec3 { return s.From.Lerp(s.To, t) }

// Midpoint returns the segment midpoint.
func (s Segment3) Midpoint() Vec3 { return s.At(0.5) }
