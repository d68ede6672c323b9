package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rfid-lion/lion/internal/obs"
)

// ErrPanic wraps a panic recovered from a job. Use errors.Is to detect it;
// the wrapped message carries the panic value.
var ErrPanic = errors.New("batch: job panicked")

// Options configures an Engine.
type Options struct {
	// Workers is the pool size. Zero or negative means runtime.GOMAXPROCS(0).
	Workers int
	// JobTimeout, when positive, bounds each job's run time: the job's
	// context is cancelled with context.DeadlineExceeded once it expires.
	JobTimeout time.Duration
	// Registry receives lion_batch_* metrics from Pool (Engine.Run is
	// stateless and stays uninstrumented). Nil means a private registry.
	Registry *obs.Registry
}

// Engine is a bounded worker pool with deterministic result ordering.
// An Engine is stateless between Run calls and safe for concurrent use.
type Engine struct {
	workers int
	timeout time.Duration
}

// New builds an engine from the options.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: w, timeout: opts.JobTimeout}
}

// Workers returns the configured pool size.
func (e *Engine) Workers() int { return e.workers }

// Job is one unit of work. The context carries cancellation and the per-job
// deadline; well-behaved long-running jobs should poll ctx.Err().
type Job func(ctx context.Context) (any, error)

// Outcome is the result of one job, keyed by its submission index.
type Outcome struct {
	// Index is the job's position in the submitted slice.
	Index int
	// Value is the job's return value when Err is nil.
	Value any
	// Err is the job's error, a recovered panic (errors.Is ErrPanic), the
	// per-job timeout (context.DeadlineExceeded), or the run's cancellation
	// (context.Canceled) for jobs that never started.
	Err error
}

// Run executes the jobs across the pool and returns one outcome per job in
// submission order: out[i] is always job i's result, independent of worker
// count and scheduling, so parallel runs reproduce serial runs exactly.
//
// Cancelling ctx stops the dispatch of not-yet-started jobs — they complete
// with ctx's error — while jobs already running are cancelled through their
// own contexts and drain before Run returns.
func (e *Engine) Run(ctx context.Context, jobs []Job) []Outcome {
	out := make([]Outcome, len(jobs))
	if len(jobs) == 0 {
		return out
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := e.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i, job := range jobs {
			out[i] = e.runOne(ctx, i, job)
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
				out[i] = e.runOne(ctx, i, jobs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// runOne executes a single job with timeout scoping and panic recovery.
func (e *Engine) runOne(ctx context.Context, index int, job Job) (o Outcome) {
	o.Index = index
	if err := ctx.Err(); err != nil {
		o.Err = err
		return o
	}
	jctx := ctx
	if e.timeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, e.timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			o.Value, o.Err = nil, fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}()
	o.Value, o.Err = job(jctx)
	return o
}

// Map fans fn over items with deterministic ordering: results[i] and
// errs[i] belong to items[i]. It is the typed convenience wrapper over
// Engine.Run for homogeneous workloads.
func Map[T, R any](ctx context.Context, e *Engine, items []T, fn func(ctx context.Context, item T) (R, error)) ([]R, []error) {
	jobs := make([]Job, len(items))
	for i := range items {
		item := items[i]
		jobs[i] = func(ctx context.Context) (any, error) {
			return fn(ctx, item)
		}
	}
	outcomes := e.Run(ctx, jobs)
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
