package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/obs"
)

// stallShard is a shard stand-in for forward-path failure tests: every
// ingest POST counts an attempt, then either fails fast or blocks until
// release is closed.
type stallShard struct {
	srv      *httptest.Server
	attempts atomic.Int32
	first    chan struct{} // closed when the first attempt arrives
	release  chan struct{} // non-nil: handler blocks on it before answering
}

func newStallShard(fail bool, block bool) *stallShard {
	f := &stallShard{first: make(chan struct{})}
	if block {
		f.release = make(chan struct{})
	}
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.attempts.Add(1) == 1 {
			close(f.first)
		}
		if f.release != nil {
			<-f.release
		}
		if fail {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	return f
}

func oneShardRouter(t *testing.T, url string, opts Options, tune func(*Config)) *Router {
	t.Helper()
	cfg := Config{
		Shards:         []ShardConfig{{ID: "s1", URL: url}},
		healthInterval: -1,
	}
	if tune != nil {
		tune(&cfg)
	}
	rt, err := New(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func waitFirstAttempt(t *testing.T, f *stallShard) {
	t.Helper()
	select {
	case <-f.first:
	case <-time.After(5 * time.Second):
		t.Fatal("shard never saw the forward POST")
	}
}

func waitCounter(t *testing.T, c interface{ Value() uint64 }, want uint64, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Value() >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s stuck at %d, want %d — forwarder never gave up", what, c.Value(), want)
}

// TestForwardShutdownDoesOneFinalAttempt: post's documented shutdown
// behaviour is one immediate final try, then give up. The pre-fix loop fell
// straight through the closed stop channel and burned the entire retry
// schedule with zero backoff, so a failing shard saw all ForwardAttempts
// POSTs during drain instead of one.
func TestForwardShutdownDoesOneFinalAttempt(t *testing.T) {
	f := newStallShard(true, false)
	defer f.srv.Close()
	rt := oneShardRouter(t, f.srv.URL, Options{}, func(c *Config) {
		c.forwardAttempts = 10
	})

	res, err := rt.Ingest([]dataset.TaggedSample{sampleFor("drain-tag", 0)}, obs.TraceContext{}, time.Time{})
	if err != nil || res.Accepted != 1 {
		t.Fatalf("ingest: res=%+v err=%v", res, err)
	}
	waitFirstAttempt(t, f)

	// Close lands during the first retry backoff: the batch gets its one
	// immediate final attempt and is then dropped, so drain stays prompt.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Exactly the in-flight attempt plus one final; ≤3 tolerates one full
	// backoff elapsing before Close's stop signal lands. Pre-fix this is
	// the whole 10-attempt schedule.
	if got := f.attempts.Load(); got < 2 || got > 3 {
		t.Errorf("shard saw %d attempts across shutdown, want 2 (in-flight + one final)", got)
	}
	if got := rt.forwardErrors.Value(); got != 1 {
		t.Errorf("forward errors = %d, want 1 dropped sample", got)
	}
}

// TestForwardAttemptTimeoutUnsticksStalledShard: each forward attempt must
// carry its own deadline even when the caller supplies an http.Client with
// no timeout. Pre-fix, postOnce built a context-less request, so a shard
// that accepted the connection and never answered wedged the forwarder —
// and the batch behind it — forever.
func TestForwardAttemptTimeoutUnsticksStalledShard(t *testing.T) {
	f := newStallShard(false, true)
	defer f.srv.Close()
	defer close(f.release)
	rt := oneShardRouter(t, f.srv.URL, Options{Client: &http.Client{}}, func(c *Config) {
		c.forwardTimeout = 100 * time.Millisecond
		c.forwardAttempts = 2
	})

	if _, err := rt.Ingest([]dataset.TaggedSample{sampleFor("stall-tag", 0)}, obs.TraceContext{}, time.Time{}); err != nil {
		t.Fatal(err)
	}
	waitFirstAttempt(t, f)
	waitCounter(t, rt.forwardErrors, 1, "lion_cluster_forward_errors_total")
	if got := f.attempts.Load(); got != 2 {
		t.Errorf("stalled shard saw %d attempts, want the configured 2", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Close(ctx); err != nil {
		t.Fatalf("close after timeout drops: %v", err)
	}
}

// TestCloseDeadlineAbortsInFlightForward: when Close's context expires the
// router cancels its lifetime context, aborting the in-flight POST so the
// forwarder exits instead of leaking, blocked on a stalled shard for the
// rest of the process.
func TestCloseDeadlineAbortsInFlightForward(t *testing.T) {
	f := newStallShard(false, true)
	defer f.srv.Close()
	defer close(f.release)
	rt := oneShardRouter(t, f.srv.URL, Options{Client: &http.Client{}}, func(c *Config) {
		c.forwardTimeout = 30 * time.Second
		c.forwardAttempts = 1
	})

	if _, err := rt.Ingest([]dataset.TaggedSample{sampleFor("stall-tag", 0)}, obs.TraceContext{}, time.Time{}); err != nil {
		t.Fatal(err)
	}
	waitFirstAttempt(t, f)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := rt.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("close against a stalled shard: err = %v, want deadline exceeded", err)
	}
	// The cancelled request must surface as a dropped batch promptly —
	// pre-fix the Do call hangs forever and this counter never moves.
	waitCounter(t, rt.forwardErrors, 1, "lion_cluster_forward_errors_total")
}
