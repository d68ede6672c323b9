package stream

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	lionobs "github.com/rfid-lion/lion/internal/obs"
)

// TestStressConcurrentPublishers hammers one engine from many goroutines:
// 8+ publishers on distinct tags, 2 publishers sharing a tag, a subscriber
// draining estimates, and pollers reading Latest/Metrics/Tags throughout.
// Run under -race this exercises every lock in the engine.
func TestStressConcurrentPublishers(t *testing.T) {
	trace, lambda := testTrace(t, 77)
	cfg := Config{
		WindowSize: 64,
		MinSamples: 8,
		SolveEvery: 8,
		Smooth:     5,
		Workers:    4,
		Solver:     Line2DSolver(lambda, []float64{0.02}, true, core.DefaultSolveOptions()),
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const (
		publishers = 10 // 8 distinct tags + 2 sharing "shared"
		perPub     = 300
	)
	tagOf := func(i int) string {
		if i >= 8 {
			return "shared"
		}
		return string(rune('A' + i))
	}

	ch, cancelSub := e.Subscribe()
	var delivered atomic.Uint64
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		for range ch {
			delivered.Add(1)
		}
	}()

	pollCtx, stopPoll := context.WithCancel(context.Background())
	var pollWG sync.WaitGroup
	for range 2 {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			for pollCtx.Err() == nil {
				e.Latest("A")
				e.Metrics()
				e.Tags()
				e.WindowLen("shared")
			}
		}()
	}

	var pubWG sync.WaitGroup
	var accepted atomic.Uint64
	for i := range publishers {
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			tag := tagOf(i)
			for j := range perPub {
				s := FromSim(trace[j%len(trace)])
				// Distinct timestamps per publisher keep span logic exercised.
				s.Time += time.Duration(i) * time.Millisecond
				if err := e.Ingest(tag, s); err != nil {
					t.Errorf("publisher %d: %v", i, err)
					return
				}
				accepted.Add(1)
			}
		}()
	}
	pubWG.Wait()
	stopPoll()
	pollWG.Wait()

	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	<-subDone
	cancelSub()

	m := e.Metrics()
	if got, want := m.Ingested, uint64(publishers*perPub); got != want {
		t.Errorf("ingested %d, want %d", got, want)
	}
	if accepted.Load() != uint64(publishers*perPub) {
		t.Errorf("accepted %d, want %d", accepted.Load(), publishers*perPub)
	}
	if m.Tags != 9 {
		t.Errorf("tags %d, want 9", m.Tags)
	}
	if m.Solves == 0 {
		t.Error("no solves completed under load")
	}
	if m.QueueDepth != 0 {
		t.Errorf("queue depth %d after close, want 0", m.QueueDepth)
	}
	// Every tag saw enough samples for at least one estimate.
	for i := range publishers {
		if _, ok := e.Latest(tagOf(i)); !ok {
			t.Errorf("tag %s has no estimate", tagOf(i))
		}
	}
	t.Logf("solves=%d coalesced=%d delivered=%d subDropped=%d",
		m.Solves, m.Coalesced, delivered.Load(), m.SubDropped)
}

// TestStressCloseWhileIngesting races Close against active publishers: every
// Ingest must return either nil or ErrClosed, never panic or deadlock, and
// Close must still drain cleanly.
func TestStressCloseWhileIngesting(t *testing.T) {
	trace, lambda := testTrace(t, 78)
	e, err := New(Config{
		WindowSize: 32, MinSamples: 4, SolveEvery: 4, Workers: 2,
		Solver: Line2DSolver(lambda, []float64{0.02}, true, core.DefaultSolveOptions()),
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			tag := string(rune('A' + i))
			for j := 0; ; j++ {
				err := e.Ingest(tag, FromSim(trace[j%len(trace)]))
				if err == ErrClosed {
					return
				}
				if err != nil {
					t.Errorf("publisher %d: %v", i, err)
					return
				}
			}
		}()
	}
	close(start)
	time.Sleep(10 * time.Millisecond)
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	if m := e.Metrics(); m.QueueDepth != 0 {
		t.Errorf("queue depth %d after close", m.QueueDepth)
	}
}

// TestStressSlowSubscriberNeverBlocksSolves checks the non-blocking publish
// path: a subscriber that never reads must not stall solving, only lose
// estimates (counted in SubDropped).
func TestStressSlowSubscriberNeverBlocksSolves(t *testing.T) {
	solver := func(obs []core.PosPhase, _ *lionobs.Tracer) (*core.Solution, error) {
		return &core.Solution{Position: geom.V3(0, 0, 0)}, nil
	}
	e, err := New(Config{
		WindowSize: 8, MinSamples: 1, SolveEvery: 1, Workers: 2,
		Solver: solver,
	})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := e.Subscribe()
	defer cancel()
	_ = ch // deliberately never drained
	// Flush after each ingest so every sample completes a solve — otherwise
	// coalescing collapses the burst into too few estimates to overflow the
	// subscriber buffer.
	for i := range subBuffer + 36 {
		if err := e.Ingest("T1", Sample{Pos: geom.V3(float64(i), 0, 0), Phase: 1}); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- e.Close(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("close deadlocked behind a slow subscriber")
	}
	m := e.Metrics()
	if m.Solves == 0 {
		t.Fatal("no solves")
	}
	if m.SubDropped == 0 {
		t.Error("expected dropped subscriber estimates with an undrained channel")
	}
	// With no reader the buffer fills once, then every further estimate drops.
	if want := m.Solves - uint64(cap(ch)); m.SubDropped != want {
		t.Errorf("subDropped=%d, want %d (solves=%d, buffer=%d)",
			m.SubDropped, want, m.Solves, cap(ch))
	}
}
