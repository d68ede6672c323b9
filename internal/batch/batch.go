package batch

import (
	"errors"
	"fmt"
	"runtime"
)

// ErrPanic wraps a panic recovered from a job. Use errors.Is to detect it;
// the wrapped message carries the panic value.
var ErrPanic = errors.New("batch: job panicked")

// Job is one unit of work.
type Job func() (any, error)

// Outcome is the result of one job, keyed by its submission index.
type Outcome struct {
	// Index is the job's position in the submitted slice.
	Index int
	// Value is the job's return value; nil after a recovered panic.
	Value any
	// Err is the job's error or a recovered panic (errors.Is ErrPanic).
	Err error
}

// Run executes the jobs on a Pool of runtime.GOMAXPROCS(0) workers and
// returns one outcome per job in submission order: out[i] is always job i's
// result, independent of worker count and scheduling, so a run at
// GOMAXPROCS 1 reproduces a run at any other setting exactly.
func Run(jobs []Job) []Outcome {
	out := make([]Outcome, len(jobs))
	if len(jobs) == 0 {
		return out
	}
	p := NewPool(min(runtime.GOMAXPROCS(0), len(jobs)), nil)
	p.reserve(len(jobs))
	// The pool is fresh and still open, so Submit cannot fail, and it
	// numbers submissions from 0, so Index is the job's slot.
	done := func(o Outcome) { out[o.Index] = o }
	for _, job := range jobs {
		_ = p.Submit(job, done)
	}
	p.Close()
	return out
}

// runOne executes a single job with panic recovery.
func runOne(index int, job Job) (o Outcome) {
	o.Index = index
	defer func() {
		if r := recover(); r != nil {
			o.Value, o.Err = nil, fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}()
	o.Value, o.Err = job()
	return o
}
