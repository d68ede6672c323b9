package stats

import "slices"

// Ring is a fixed-capacity window over the most recent elements of a
// stream: Push appends at the newest end and, once the ring is full, evicts
// the oldest element. Every bounded recent window in the pipeline —
// drift windows, resolved alerts, span logs, session sample windows — is
// one Ring, so the index arithmetic lives only here.
//
// Build rings with NewRing; the zero value has no capacity and must not be
// pushed to. A Ring is not safe for concurrent use; callers hold their own
// lock.
type Ring[T any] struct {
	buf   []T
	start int // physical index of the oldest element
	n     int
	total uint64
}

// NewRing returns an empty ring holding at most capacity elements. It
// panics when capacity is not positive.
func NewRing[T any](capacity int) Ring[T] {
	if capacity <= 0 {
		panic("stats: ring capacity must be positive")
	}
	return Ring[T]{buf: make([]T, capacity)}
}

// Push appends v as the newest element. When the ring was already full it
// evicts the oldest element and returns it with evicted true.
func (r *Ring[T]) Push(v T) (old T, evicted bool) {
	r.total++
	i := r.start + r.n // the oldest slot when full
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	old, r.buf[i] = r.buf[i], v
	if r.n < len(r.buf) {
		r.n++
		return old, false
	}
	if r.start++; r.start == len(r.buf) {
		r.start = 0
	}
	return old, true
}

// PopOldest removes and returns the oldest element; ok is false when the
// ring is empty.
func (r *Ring[T]) PopOldest() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	var zero T
	v, r.buf[r.start] = r.buf[r.start], zero
	if r.start++; r.start == len(r.buf) {
		r.start = 0
	}
	r.n--
	return v, true
}

// At returns the i-th oldest element, 0 ≤ i < Len.
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.n {
		panic("stats: ring index out of range")
	}
	if i += r.start; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return r.buf[i]
}

// Len returns the number of retained elements.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the capacity the ring was built with.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Total returns the number of elements ever pushed, retained or evicted.
func (r *Ring[T]) Total() uint64 { return r.total }

// AppendTo appends the retained elements to dst, oldest first, and returns
// the extended slice. It grows dst at most once and copies the window in at
// most two runs, so a dst with room for Len more elements costs no
// allocation.
func (r *Ring[T]) AppendTo(dst []T) []T {
	dst = slices.Grow(dst, r.n)
	head := r.buf[r.start:min(r.start+r.n, len(r.buf))]
	dst = append(dst, head...)
	return append(dst, r.buf[:r.n-len(head)]...)
}

// Reset empties the ring and zeroes Total, keeping its capacity.
func (r *Ring[T]) Reset() {
	clear(r.buf)
	r.start, r.n, r.total = 0, 0, 0
}
