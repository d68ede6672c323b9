package batch

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunOrderingMatchesSubmission(t *testing.T) {
	e := New(Options{Workers: 8})
	jobs := make([]Job, 100)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context) (any, error) { return i * i, nil }
	}
	out := e.Run(context.Background(), jobs)
	for i, o := range out {
		if o.Index != i || o.Err != nil || o.Value.(int) != i*i {
			t.Fatalf("outcome %d = %+v", i, o)
		}
	}
}

func TestRunEmptyAndNilContext(t *testing.T) {
	e := New(Options{})
	if out := e.Run(context.Background(), nil); len(out) != 0 {
		t.Fatalf("empty run returned %d outcomes", len(out))
	}
	out := e.Run(nil, []Job{func(context.Context) (any, error) { return "ok", nil }})
	if out[0].Err != nil || out[0].Value != "ok" {
		t.Fatalf("nil-context run = %+v", out[0])
	}
}

func TestDefaultWorkers(t *testing.T) {
	if w := New(Options{}).Workers(); w < 1 {
		t.Fatalf("default workers = %d", w)
	}
	if w := New(Options{Workers: -3}).Workers(); w < 1 {
		t.Fatalf("negative workers = %d", w)
	}
}

func TestPanicRecovery(t *testing.T) {
	e := New(Options{Workers: 4})
	jobs := []Job{
		func(context.Context) (any, error) { return 1, nil },
		func(context.Context) (any, error) { panic("boom") },
		func(context.Context) (any, error) { return 3, nil },
	}
	out := e.Run(context.Background(), jobs)
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("healthy jobs failed: %+v", out)
	}
	if !errors.Is(out[1].Err, ErrPanic) {
		t.Fatalf("panic outcome err = %v", out[1].Err)
	}
}

// TestStressMixedJobsDeterministic submits 1000 mixed jobs (pure compute,
// erroring, panicking) and asserts the outcome slice is identical across 10
// repeated parallel runs — the determinism contract under -race.
func TestStressMixedJobsDeterministic(t *testing.T) {
	const n = 1000
	errSentinel := errors.New("job failed")
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		switch i % 5 {
		case 3:
			jobs[i] = func(context.Context) (any, error) { return nil, fmt.Errorf("%w: %d", errSentinel, i) }
		case 4:
			jobs[i] = func(context.Context) (any, error) { panic(i) }
		default:
			jobs[i] = func(context.Context) (any, error) {
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
	e := New(Options{Workers: 8})
	first := normalize(e.Run(context.Background(), jobs))
	for run := 0; run < 10; run++ {
		got := normalize(e.Run(context.Background(), jobs))
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d differs from first run", run)
		}
	}
	// Serial run is identical too.
	serial := normalize(New(Options{Workers: 1}).Run(context.Background(), jobs))
	if !reflect.DeepEqual(serial, first) {
		t.Fatal("serial run differs from parallel run")
	}
}

// TestCancellationMidFlight cancels the run context once a fraction of the
// jobs completed and asserts that (a) Run returns, (b) unstarted jobs carry
// context.Canceled, and (c) some jobs did finish before the cut.
func TestCancellationMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	const n = 500
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = func(jctx context.Context) (any, error) {
			if done.Add(1) == 50 {
				cancel()
			}
			select {
			case <-jctx.Done():
				return nil, jctx.Err()
			case <-time.After(time.Millisecond):
				return "done", nil
			}
		}
	}
	out := New(Options{Workers: 4}).Run(ctx, jobs)
	var completed, cancelled int
	for _, o := range out {
		switch {
		case o.Err == nil:
			completed++
		case errors.Is(o.Err, context.Canceled):
			cancelled++
		default:
			t.Fatalf("unexpected error: %v", o.Err)
		}
	}
	if completed == 0 {
		t.Error("no job completed before cancellation")
	}
	if cancelled == 0 {
		t.Error("no job observed the cancellation")
	}
	if completed+cancelled != n {
		t.Errorf("accounted %d of %d jobs", completed+cancelled, n)
	}
}

// TestPerJobTimeout gives every job a 5 ms budget; jobs that sleep past it
// must fail with context.DeadlineExceeded while fast jobs still succeed.
func TestPerJobTimeout(t *testing.T) {
	e := New(Options{Workers: 4, JobTimeout: 5 * time.Millisecond})
	jobs := []Job{
		func(context.Context) (any, error) { return "fast", nil },
		func(jctx context.Context) (any, error) {
			select {
			case <-jctx.Done():
				return nil, jctx.Err()
			case <-time.After(time.Second):
				return "slow", nil
			}
		},
	}
	out := e.Run(context.Background(), jobs)
	if out[0].Err != nil {
		t.Fatalf("fast job failed: %v", out[0].Err)
	}
	if !errors.Is(out[1].Err, context.DeadlineExceeded) {
		t.Fatalf("slow job err = %v, want deadline exceeded", out[1].Err)
	}
}

// TestTimeoutIsPerJobNotPerRun submits more slow-ish jobs than workers with
// a budget each job individually fits in: all must succeed, proving the
// deadline starts when a job starts, not when the run starts.
func TestTimeoutIsPerJobNotPerRun(t *testing.T) {
	e := New(Options{Workers: 2, JobTimeout: 100 * time.Millisecond})
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = func(jctx context.Context) (any, error) {
			select {
			case <-jctx.Done():
				return nil, jctx.Err()
			case <-time.After(20 * time.Millisecond):
				return "ok", nil
			}
		}
	}
	for i, o := range e.Run(context.Background(), jobs) {
		if o.Err != nil {
			t.Fatalf("job %d hit a shared deadline: %v", i, o.Err)
		}
	}
}

func TestMapTypedResults(t *testing.T) {
	e := New(Options{Workers: 4})
	items := []int{1, 2, 3, 4, 5}
	results, errs := Map(context.Background(), e, items,
		func(_ context.Context, v int) (float64, error) {
			if v == 3 {
				return 0, errors.New("skip three")
			}
			return float64(v) * 0.5, nil
		})
	for i, v := range items {
		if v == 3 {
			if errs[i] == nil {
				t.Error("expected error for item 3")
			}
			continue
		}
		if errs[i] != nil || results[i] != float64(v)*0.5 {
			t.Errorf("item %d: result %v err %v", v, results[i], errs[i])
		}
	}
}
