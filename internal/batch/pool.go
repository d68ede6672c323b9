package batch

import (
	"errors"
	"sync"

	"github.com/rfid-lion/lion/internal/obs"
)

// ErrPoolClosed is returned by Submit after Close has been called.
var ErrPoolClosed = errors.New("batch: pool closed")

// Pool is the persistent sibling of Engine: the same bounded workers and
// panic recovery, but accepting jobs over time instead of one slice per Run.
// It backs streaming workloads (internal/stream) where windows arrive
// continuously and each completion must fire a callback.
//
// The queue is unbounded; callers that need back-pressure must bound their
// own outstanding submissions (the stream engine keeps at most one queued
// window per tag).
type Pool struct {
	jobsOK    *obs.Counter
	jobsErr   *obs.Counter
	jobsPanic *obs.Counter

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []poolTask // ring-ish FIFO: live tasks are queue[head:]
	head   int        // index of the next task to dequeue
	closed bool
	next   int
	wg     sync.WaitGroup
}

type poolTask struct {
	index int
	job   Job
	done  func(Outcome)
}

// NewPool starts the workers immediately. Zero or negative Workers means
// runtime.GOMAXPROCS(0), as for New.
func NewPool(opts Options) *Pool {
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	jobs := reg.CounterVec("lion_batch_jobs_total", "Pool jobs completed, by result.", "result")
	p := &Pool{
		jobsOK:    jobs.With("ok"),
		jobsErr:   jobs.With("error"),
		jobsPanic: jobs.With("panic"),
	}
	reg.GaugeFunc("lion_batch_queue_depth", "Pool jobs queued but not yet running.", func() float64 {
		return float64(p.Len())
	})
	p.cond = sync.NewCond(&p.mu)
	for range New(opts).workers {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Submit enqueues one job. done, when non-nil, is invoked from a worker
// goroutine with the job's outcome; Outcome.Index is the submission sequence
// number. Submit never blocks on job execution.
func (p *Pool) Submit(job Job, done func(Outcome)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	p.queue = append(p.queue, poolTask{index: p.next, job: job, done: done})
	p.next++
	p.cond.Signal()
	return nil
}

// Len returns the number of jobs queued but not yet picked up by a worker.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue) - p.head
}

// Close stops accepting submissions, drains every queued job, and waits for
// running jobs (and their done callbacks) to finish. It is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for p.head == len(p.queue) && !p.closed {
			p.cond.Wait()
		}
		if p.head == len(p.queue) {
			p.mu.Unlock()
			return
		}
		t := p.queue[p.head]
		p.queue[p.head] = poolTask{} // release the job/done references
		p.head++
		if p.head == len(p.queue) {
			// Drained: rewind so appends keep reusing the same backing array.
			// This is what keeps a steady-state Submit allocation-free — the
			// previous queue[1:] reslice leaked front capacity on every
			// dequeue and forced append to reallocate perpetually.
			p.queue = p.queue[:0]
			p.head = 0
		} else if p.head >= 64 && p.head*2 >= len(p.queue) {
			// Deep queue with a mostly-consumed prefix: compact in place.
			n := copy(p.queue, p.queue[p.head:])
			for i := n; i < len(p.queue); i++ {
				p.queue[i] = poolTask{}
			}
			p.queue = p.queue[:n]
			p.head = 0
		}
		p.mu.Unlock()
		o := runOne(t.index, t.job)
		switch {
		case o.Err == nil:
			p.jobsOK.Inc()
		case errors.Is(o.Err, ErrPanic):
			p.jobsPanic.Inc()
		default:
			p.jobsErr.Inc()
		}
		if t.done != nil {
			t.done(o)
		}
	}
}
