package batch

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// atProcs runs f with GOMAXPROCS set to n, the only input that sizes Run's
// pool, and restores the previous setting.
func atProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

func TestRunOrderingMatchesSubmission(t *testing.T) {
	jobs := make([]Job, 100)
	for i := range jobs {
		i := i
		jobs[i] = func() (any, error) { return i * i, nil }
	}
	var out []Outcome
	atProcs(8, func() { out = Run(jobs) })
	for i, o := range out {
		if o.Index != i || o.Err != nil || o.Value.(int) != i*i {
			t.Fatalf("outcome %d = %+v", i, o)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	if out := Run(nil); len(out) != 0 {
		t.Fatalf("empty run returned %d outcomes", len(out))
	}
	out := Run([]Job{func() (any, error) { return "ok", nil }})
	if out[0].Err != nil || out[0].Value != "ok" {
		t.Fatalf("single-job run = %+v", out[0])
	}
}

// TestDefaultWorkers checks that a zero or negative pool size still starts
// workers: a pool without any would never run the job.
func TestDefaultWorkers(t *testing.T) {
	for _, n := range []int{0, -3} {
		p := NewPool(n, nil)
		done := make(chan struct{})
		if err := p.Submit(func() (any, error) { return nil, nil }, func(Outcome) { close(done) }); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("NewPool(%d) ran no job", n)
		}
		p.Close()
	}
}

func TestPanicRecovery(t *testing.T) {
	jobs := []Job{
		func() (any, error) { return 1, nil },
		func() (any, error) { panic("boom") },
		func() (any, error) { return 3, nil },
	}
	var out []Outcome
	atProcs(4, func() { out = Run(jobs) })
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("healthy jobs failed: %+v", out)
	}
	if !errors.Is(out[1].Err, ErrPanic) {
		t.Fatalf("panic outcome err = %v", out[1].Err)
	}
}

// TestStressMixedJobsDeterministic submits 1000 mixed jobs (pure compute,
// erroring, panicking) and asserts the outcome slice is identical across 10
// repeated parallel runs — the determinism contract under -race — and
// identical to a run at GOMAXPROCS 1.
func TestStressMixedJobsDeterministic(t *testing.T) {
	const n = 1000
	errSentinel := errors.New("job failed")
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		switch i % 5 {
		case 3:
			jobs[i] = func() (any, error) { return nil, fmt.Errorf("%w: %d", errSentinel, i) }
		case 4:
			jobs[i] = func() (any, error) { panic(i) }
		default:
			jobs[i] = func() (any, error) {
				s := 0
				for k := 0; k < i%97+1; k++ {
					s += k * i
				}
				return s, nil
			}
		}
	}
	normalize := func(out []Outcome) []string {
		s := make([]string, len(out))
		for i, o := range out {
			s[i] = fmt.Sprintf("%d|%v|%v", o.Index, o.Value, o.Err)
		}
		return s
	}
	var first, serial []string
	atProcs(8, func() {
		first = normalize(Run(jobs))
		for run := 0; run < 10; run++ {
			got := normalize(Run(jobs))
			if !reflect.DeepEqual(got, first) {
				t.Fatalf("run %d differs from first run", run)
			}
		}
	})
	// Serial run is identical too.
	atProcs(1, func() { serial = normalize(Run(jobs)) })
	if !reflect.DeepEqual(serial, first) {
		t.Fatal("serial run differs from parallel run")
	}
}

// TestRunAllocs pins the cost of Run's throwaway pool: with no registry the
// pool registers no lion_batch_* series, and its queue is sized once, so
// four trivial jobs cost only the outcomes, the pool, its queue, the
// completion callback and a worker (5 allocations measured). A private
// obs.Registry with the series, which nobody could read, and a queue grown
// job by job cost 19.
func TestRunAllocs(t *testing.T) {
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = func() (any, error) { return nil, nil }
	}
	for _, procs := range []int{1, 2} {
		atProcs(procs, func() {
			Run(jobs)
			if a := testing.AllocsPerRun(100, func() { Run(jobs) }); a > 6 {
				t.Errorf("GOMAXPROCS %d: Run of 4 jobs allocates %.1f times, want at most 6", procs, a)
			}
		})
	}
}
