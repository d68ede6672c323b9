package batch

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

func TestRunOrderingMatchesSubmission(t *testing.T) {
	e := New(Options{Workers: 8})
	jobs := make([]Job, 100)
	for i := range jobs {
		i := i
		jobs[i] = func() (any, error) { return i * i, nil }
	}
	out := e.Run(jobs)
	for i, o := range out {
		if o.Index != i || o.Err != nil || o.Value.(int) != i*i {
			t.Fatalf("outcome %d = %+v", i, o)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	e := New(Options{})
	if out := e.Run(nil); len(out) != 0 {
		t.Fatalf("empty run returned %d outcomes", len(out))
	}
	out := e.Run([]Job{func() (any, error) { return "ok", nil }})
	if out[0].Err != nil || out[0].Value != "ok" {
		t.Fatalf("single-job run = %+v", out[0])
	}
}

func TestDefaultWorkers(t *testing.T) {
	if w := New(Options{}).workers; w < 1 {
		t.Fatalf("default workers = %d", w)
	}
	if w := New(Options{Workers: -3}).workers; w < 1 {
		t.Fatalf("negative workers = %d", w)
	}
}

func TestPanicRecovery(t *testing.T) {
	e := New(Options{Workers: 4})
	jobs := []Job{
		func() (any, error) { return 1, nil },
		func() (any, error) { panic("boom") },
		func() (any, error) { return 3, nil },
	}
	out := e.Run(jobs)
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
	e := New(Options{Workers: 8})
	first := normalize(e.Run(jobs))
	for run := 0; run < 10; run++ {
		got := normalize(e.Run(jobs))
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d differs from first run", run)
		}
	}
	// Serial run is identical too.
	serial := normalize(New(Options{Workers: 1}).Run(jobs))
	if !reflect.DeepEqual(serial, first) {
		t.Fatal("serial run differs from parallel run")
	}
}

func TestMapTypedResults(t *testing.T) {
	e := New(Options{Workers: 4})
	items := []int{1, 2, 3, 4, 5}
	results, errs := Map(e, items,
		func(v int) (float64, error) {
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
