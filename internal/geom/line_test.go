package geom

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestLineThrough(t *testing.T) {
	l := LineThrough(V2(0, 0), V2(1, 1))
	if !l.Contains(V2(0.5, 0.5), eps) {
		t.Errorf("midpoint not on line %v", l)
	}
	if l.Contains(V2(0, 1), 1e-3) {
		t.Errorf("off-line point reported on line %v", l)
	}
}

// TestLinePointDir checks the line through a point along a direction, built
// as the line through p and p+dir.
func TestLinePointDir(t *testing.T) {
	p, dir := V2(2, 3), V2(0, 1)
	l := LineThrough(p, p.Add(dir)) // vertical line x=2
	if !l.Contains(V2(2, -7), eps) {
		t.Errorf("(2,-7) not on vertical line %v", l)
	}
	if got := l.Dist(V2(5, 0)); !almostEq(got, 3, eps) {
		t.Errorf("Dist = %v, want 3", got)
	}
}

func TestLineIntersect(t *testing.T) {
	l := LineThrough(V2(0, 0), V2(1, 1))
	m := LineThrough(V2(0, 2), V2(2, 0))
	p, err := l.Intersect(m)
	if err != nil {
		t.Fatalf("Intersect: %v", err)
	}
	if !vec2AlmostEq(p, V2(1, 1), eps) {
		t.Errorf("intersection = %v, want (1,1)", p)
	}
}

func TestLineIntersectParallel(t *testing.T) {
	l := LineThrough(V2(0, 0), V2(1, 0))
	m := LineThrough(V2(0, 1), V2(1, 1))
	if _, err := l.Intersect(m); !errors.Is(err, ErrNoIntersection) {
		t.Errorf("parallel intersect err = %v, want ErrNoIntersection", err)
	}
	if _, err := l.Intersect(l); !errors.Is(err, ErrNoIntersection) {
		t.Errorf("self intersect err = %v, want ErrNoIntersection", err)
	}
}

func TestLineNormalize(t *testing.T) {
	l := Line2{A: 3, B: 4, C: 10}.Normalize()
	if !almostEq(math.Hypot(l.A, l.B), 1, eps) {
		t.Errorf("normal not unit: %v", l)
	}
	// Normalising must not move the line.
	p := V2(2, 1) // satisfies 3*2+4*1=10
	if !l.Contains(p, eps) {
		t.Errorf("point left the line after Normalize: %v", l)
	}
	var degenerate Line2
	if got := degenerate.Normalize(); got != degenerate {
		t.Errorf("degenerate Normalize changed value: %v", got)
	}
}

func TestLineProject(t *testing.T) {
	l := LineThrough(V2(0, 0), V2(1, 0)) // x-axis
	if got := l.Project(V2(3, 5)); !vec2AlmostEq(got, V2(3, 0), eps) {
		t.Errorf("Project = %v, want (3,0)", got)
	}
	// Projection is idempotent.
	p := l.Project(V2(-2, 7))
	if !vec2AlmostEq(l.Project(p), p, eps) {
		t.Errorf("projection not idempotent")
	}
}

func TestLineDirection(t *testing.T) {
	l := LineThrough(V2(0, 0), V2(2, 2))
	d := l.Direction()
	if !almostEq(d.Norm(), 1, eps) {
		t.Errorf("direction not unit: %v", d)
	}
	if !almostEq(math.Abs(d.Dot(V2(1, 1).Unit())), 1, eps) {
		t.Errorf("direction %v not along (1,1)", d)
	}
}

func TestLineIsDegenerate(t *testing.T) {
	if !(Line2{C: 1}).IsDegenerate() {
		t.Error("zero-normal line not reported degenerate")
	}
	if (Line2{A: 1}).IsDegenerate() {
		t.Error("valid line reported degenerate")
	}
}

func TestSegment2(t *testing.T) {
	s := Segment2{From: V2(0, 0), To: V2(4, 0)}
	if got := s.Length(); got != 4 {
		t.Errorf("Length = %v", got)
	}
	if got := s.Midpoint(); got != V2(2, 0) {
		t.Errorf("Midpoint = %v", got)
	}
	if got := s.At(0.25); got != V2(1, 0) {
		t.Errorf("At(0.25) = %v", got)
	}
	if !s.Line().Contains(V2(17, 0), eps) {
		t.Error("supporting line wrong")
	}
}

func TestSegment3(t *testing.T) {
	s := Segment3{From: V3(0, 0, 0), To: V3(0, 0, 2)}
	if got := s.Length(); got != 2 {
		t.Errorf("Length = %v", got)
	}
	if got := s.Midpoint(); got != V3(0, 0, 1) {
		t.Errorf("Midpoint = %v", got)
	}
	if got := s.At(0.5); got != V3(0, 0, 1) {
		t.Errorf("At = %v", got)
	}
}

func TestLinePropertyEndpointsOnLine(t *testing.T) {
	f := func(px, py, qx, qy float64) bool {
		p := V2(clamp(px), clamp(py))
		q := V2(clamp(qx), clamp(qy))
		if p.Dist(q) < 1e-9 {
			return true
		}
		l := LineThrough(p, q)
		tol := 1e-6 * (1 + p.Norm() + q.Norm())
		return l.Dist(p) <= tol && l.Dist(q) <= tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinePropertyProjectOnLine(t *testing.T) {
	f := func(px, py, qx, qy, rx, ry float64) bool {
		p := V2(clamp(px), clamp(py))
		q := V2(clamp(qx), clamp(qy))
		r := V2(clamp(rx), clamp(ry))
		if p.Dist(q) < 1e-6 {
			return true
		}
		l := LineThrough(p, q)
		proj := l.Project(r)
		tol := 1e-5 * (1 + p.Norm() + q.Norm() + r.Norm())
		return l.Dist(proj) <= tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
