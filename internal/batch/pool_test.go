package batch

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolRunsEveryJob(t *testing.T) {
	p := NewPool(Options{Workers: 4})
	var sum atomic.Int64
	var wg sync.WaitGroup
	for i := 1; i <= 100; i++ {
		i := i
		wg.Add(1)
		err := p.Submit(func() (any, error) {
			return int64(i), nil
		}, func(o Outcome) {
			defer wg.Done()
			if o.Err != nil {
				t.Errorf("job %d: %v", o.Index, o.Err)
				return
			}
			sum.Add(o.Value.(int64))
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	wg.Wait()
	p.Close()
	if got := sum.Load(); got != 5050 {
		t.Errorf("sum = %d, want 5050", got)
	}
}

func TestPoolCloseDrainsQueue(t *testing.T) {
	p := NewPool(Options{Workers: 1})
	var ran atomic.Int64
	for i := 0; i < 50; i++ {
		if err := p.Submit(func() (any, error) {
			ran.Add(1)
			return nil, nil
		}, nil); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	p.Close()
	if got := ran.Load(); got != 50 {
		t.Errorf("ran %d jobs before Close returned, want 50", got)
	}
	if err := p.Submit(func() (any, error) { return nil, nil }, nil); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Submit after Close = %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent
}

func TestPoolRecoversPanic(t *testing.T) {
	p := NewPool(Options{Workers: 2})
	defer p.Close()
	done := make(chan Outcome, 1)
	if err := p.Submit(func() (any, error) {
		panic("boom")
	}, func(o Outcome) { done <- o }); err != nil {
		t.Fatal(err)
	}
	o := <-done
	if !errors.Is(o.Err, ErrPanic) {
		t.Errorf("outcome err = %v, want ErrPanic", o.Err)
	}
}
