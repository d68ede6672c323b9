package batch

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/rfid-lion/lion/internal/obs"
)

// ErrPanic wraps a panic recovered from a job. Use errors.Is to detect it;
// the wrapped message carries the panic value.
var ErrPanic = errors.New("batch: job panicked")

// Options configures an Engine.
type Options struct {
	// Workers is the pool size. Zero or negative means runtime.GOMAXPROCS(0).
	Workers int
	// Registry receives lion_batch_* metrics from Pool (Engine.Run is
	// stateless and stays uninstrumented). Nil means a private registry.
	Registry *obs.Registry
}

// Engine is a bounded worker pool with deterministic result ordering.
// An Engine is stateless between Run calls and safe for concurrent use.
type Engine struct {
	workers int
}

// New builds an engine from the options.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: w}
}

// Job is one unit of work.
type Job func() (any, error)

// Outcome is the result of one job, keyed by its submission index.
type Outcome struct {
	// Index is the job's position in the submitted slice.
	Index int
	// Value is the job's return value when Err is nil.
	Value any
	// Err is the job's error or a recovered panic (errors.Is ErrPanic).
	Err error
}

// Run executes the jobs across the pool and returns one outcome per job in
// submission order: out[i] is always job i's result, independent of worker
// count and scheduling, so parallel runs reproduce serial runs exactly.
func (e *Engine) Run(jobs []Job) []Outcome {
	out := make([]Outcome, len(jobs))
	workers := min(e.workers, len(jobs))
	if workers <= 1 {
		for i, job := range jobs {
			out[i] = runOne(i, job)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				out[i] = runOne(i, jobs[i])
			}
		}()
	}
	wg.Wait()
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

// Map fans fn over items with deterministic ordering: results[i] and
// errs[i] belong to items[i]. It is the typed convenience wrapper over
// Engine.Run for homogeneous workloads.
func Map[T, R any](e *Engine, items []T, fn func(item T) (R, error)) ([]R, []error) {
	jobs := make([]Job, len(items))
	for i := range items {
		item := items[i]
		jobs[i] = func() (any, error) {
			return fn(item)
		}
	}
	outcomes := e.Run(jobs)
	results := make([]R, len(items))
	errs := make([]error, len(items))
	for i, o := range outcomes {
		if o.Err != nil {
			errs[i] = o.Err
			continue
		}
		if v, ok := o.Value.(R); ok {
			results[i] = v
		}
	}
	return results, errs
}
