package stats

import (
	"reflect"
	"testing"
)

// ringOp is one step of a ring script: push a value (pop false) or pop the
// oldest (pop true), with the element the step must hand back.
type ringOp struct {
	pop  bool
	v    int
	out  int  // evicted (push) or popped (pop) element
	took bool // whether the step evicted/popped anything
}

func TestRing(t *testing.T) {
	push := func(v int) ringOp { return ringOp{v: v} }
	evict := func(v, old int) ringOp { return ringOp{v: v, out: old, took: true} }
	pop := func(old int) ringOp { return ringOp{pop: true, out: old, took: true} }
	popEmpty := ringOp{pop: true}
	cases := []struct {
		name  string
		cap   int
		ops   []ringOp
		want  []int
		total uint64
	}{
		{"exactly full", 3, []ringOp{push(1), push(2), push(3)}, []int{1, 2, 3}, 3},
		{"wraps twice", 2, []ringOp{push(1), push(2), evict(3, 1), evict(4, 2), evict(5, 3), evict(6, 4)},
			[]int{5, 6}, 6},
		{"pop oldest", 3, []ringOp{push(1), push(2), pop(1), push(3)}, []int{2, 3}, 3},
		{"pop across wrap", 3, []ringOp{push(1), push(2), push(3), evict(4, 1), pop(2), pop(3), push(5)},
			[]int{4, 5}, 5},
		{"pop to empty", 2, []ringOp{push(1), pop(1), popEmpty, push(2), push(3)}, []int{2, 3}, 3},
		{"capacity one", 1, []ringOp{push(1), evict(2, 1), evict(3, 2)}, []int{3}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing[int](tc.cap)
			for i, op := range tc.ops {
				var out int
				var took bool
				if op.pop {
					out, took = r.PopOldest()
				} else {
					out, took = r.Push(op.v)
				}
				if out != op.out || took != op.took {
					t.Fatalf("op %d %+v returned (%d, %v), want (%d, %v)", i, op, out, took, op.out, op.took)
				}
			}
			if got := r.AppendTo(nil); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("AppendTo(nil) = %v, want %v", got, tc.want)
			}
			if r.Len() != len(tc.want) || r.Cap() != tc.cap || r.Total() != tc.total {
				t.Errorf("Len/Cap/Total = %d/%d/%d, want %d/%d/%d",
					r.Len(), r.Cap(), r.Total(), len(tc.want), tc.cap, tc.total)
			}
			for i, w := range tc.want {
				if got := r.At(i); got != w {
					t.Errorf("At(%d) = %d, want %d", i, got, w)
				}
			}
			// AppendTo extends a non-empty destination in place.
			if got := r.AppendTo([]int{-1}); !reflect.DeepEqual(got, append([]int{-1}, tc.want...)) {
				t.Errorf("AppendTo([-1]) = %v, want -1 then %v", got, tc.want)
			}

			r.Reset()
			if r.Len() != 0 || r.Total() != 0 || r.Cap() != tc.cap || r.AppendTo(nil) != nil {
				t.Errorf("after Reset Len/Total/Cap = %d/%d/%d, window %v",
					r.Len(), r.Total(), r.Cap(), r.AppendTo(nil))
			}
			// A reset ring fills from scratch like a new one.
			for i := 1; i <= tc.cap+1; i++ {
				r.Push(i)
			}
			if r.At(0) != 2 || r.At(r.Len()-1) != tc.cap+1 {
				t.Errorf("refilled window = %v, want 2..%d", r.AppendTo(nil), tc.cap+1)
			}
		})
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing[float64](4)
	if got := r.AppendTo(nil); got != nil {
		t.Errorf("empty window = %v, want nil", got)
	}
	if r.Len() != 0 || r.Total() != 0 || r.Cap() != 4 {
		t.Errorf("empty Len/Total/Cap = %d/%d/%d, want 0/0/4", r.Len(), r.Total(), r.Cap())
	}
	if v, ok := r.PopOldest(); ok || v != 0 {
		t.Errorf("PopOldest on empty = (%v, %v), want (0, false)", v, ok)
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing[float64](4)
	for _, x := range []float64{1, 2} {
		if _, evicted := r.Push(x); evicted {
			t.Errorf("Push(%v) evicted from a ring with room", x)
		}
	}
	if got := r.AppendTo(nil); !reflect.DeepEqual(got, []float64{1, 2}) {
		t.Errorf("window = %v, want [1 2]", got)
	}
	if r.Len() != 2 || r.Total() != 2 || r.At(0) != 1 || r.At(1) != 2 {
		t.Errorf("Len/Total = %d/%d, At(0..1) = %v %v", r.Len(), r.Total(), r.At(0), r.At(1))
	}
}

func TestRingEvictsOldest(t *testing.T) {
	r := NewRing[float64](3)
	for i := 1; i <= 5; i++ {
		old, evicted := r.Push(float64(i))
		if wantEvict := i > 3; evicted != wantEvict || (evicted && old != float64(i-3)) {
			t.Errorf("Push(%d) = (%v, %v), want eviction %v of %d", i, old, evicted, wantEvict, i-3)
		}
	}
	if got := r.AppendTo(nil); !reflect.DeepEqual(got, []float64{3, 4, 5}) {
		t.Errorf("window = %v, want [3 4 5]", got)
	}
	if r.Total() != 5 {
		t.Errorf("Total = %d, want 5", r.Total())
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
}

func TestRingAtOutOfRangePanics(t *testing.T) {
	r := NewRing[int](4)
	r.Push(1)
	defer func() {
		if recover() == nil {
			t.Error("At past Len did not panic")
		}
	}()
	r.At(1)
}

func TestNewRingRejectsNonPositiveCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRing(0) did not panic")
		}
	}()
	NewRing[int](0)
}

// TestRingZeroAllocs pins the steady-state cost of the pipeline's windows:
// pushing into a full ring, popping, and copying the window out into a
// buffer that already has room allocate nothing.
func TestRingZeroAllocs(t *testing.T) {
	r := NewRing[float64](64)
	for i := 0; i < 100; i++ { // full and wrapped
		r.Push(float64(i))
	}
	buf := make([]float64, 0, 64)
	x := 0.0
	if a := testing.AllocsPerRun(100, func() { x++; r.Push(x) }); a != 0 {
		t.Errorf("Push allocates %v per op", a)
	}
	if a := testing.AllocsPerRun(100, func() { x++; r.PopOldest(); r.Push(x) }); a != 0 {
		t.Errorf("PopOldest allocates %v per op", a)
	}
	if a := testing.AllocsPerRun(100, func() { buf = r.AppendTo(buf[:0]) }); a != 0 {
		t.Errorf("AppendTo allocates %v per op", a)
	}
	if len(buf) != 64 || buf[63] != x || buf[0] != x-63 {
		t.Errorf("AppendTo window [%v .. %v] of %d, want [%v .. %v] of 64", buf[0], buf[len(buf)-1], len(buf), x-63, x)
	}
}
