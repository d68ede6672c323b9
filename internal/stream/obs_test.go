package stream

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/health"
	lionobs "github.com/rfid-lion/lion/internal/obs"
)

// TestEngineExportsRegistryMetrics checks that the engine's counters land in
// its registry under the lion_stream_* names and agree with the Metrics()
// snapshot after a replayed trace.
func TestEngineExportsRegistryMetrics(t *testing.T) {
	trace, lambda := testTrace(t, 55)
	cfg := lineConfig(lambda)
	reg := lionobs.NewRegistry()
	cfg.Registry = reg
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Registry() != reg {
		t.Fatal("Registry() did not return the configured registry")
	}
	for _, s := range toStream(trace[:128]) {
		if err := e.Ingest("T1", s); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	reg.WritePrometheus(&buf)
	exp := buf.String()
	m := e.Metrics()
	for _, want := range []string{
		"lion_stream_ingested_total 128",
		"lion_stream_solve_latency_seconds_count",
		"lion_batch_jobs_total{result=\"ok\"}",
		"lion_stream_tags 1",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q:\n%s", want, exp)
		}
	}
	if m.Ingested != 128 {
		t.Errorf("Metrics().Ingested = %d, want 128", m.Ingested)
	}
	latency, ok := reg.FindHistogram("lion_stream_solve_latency_seconds")
	if !ok {
		t.Fatal("solve latency histogram not registered")
	}
	if m.Solves == 0 || latency.Count() == 0 {
		t.Errorf("solves/latency not recorded: %+v, latency count %d", m, latency.Count())
	}
}

// TestEngineSolvesUntraced checks that the engine hands every window solve a
// nil tracer, with a monitor and without: a tag's Solution is its only
// per-solve record, and the monitor still observes every solve.
func TestEngineSolvesUntraced(t *testing.T) {
	trace, lambda := testTrace(t, 56)
	ctx := context.Background()
	for _, monitored := range []bool{false, true} {
		cfg := lineConfig(lambda)
		inner := cfg.Solver
		var solves, traced atomic.Int64
		cfg.Solver = func(win []core.PosPhase, tr *lionobs.Tracer) (*core.Solution, error) {
			solves.Add(1)
			if tr != nil {
				traced.Add(1)
			}
			return inner(win, tr)
		}
		if monitored {
			mon, err := health.New(health.Config{})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Monitor = mon
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range toStream(trace[:160]) {
			if err := e.Ingest("T1", s); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Close(ctx); err != nil {
			t.Fatal(err)
		}
		if solves.Load() == 0 || traced.Load() != 0 {
			t.Errorf("monitored=%v: engine traced %d of %d solves, want 0", monitored, traced.Load(), solves.Load())
		}
		if monitored {
			evals, ok := cfg.Monitor.Registry().FindHistogram("lion_health_eval_seconds")
			if !ok || evals.Count() != uint64(solves.Load()) {
				t.Errorf("the monitor observed %v of %d solves", evals, solves.Load())
			}
		}
	}
}

// TestFlushWaitsForHealthHook pins that Flush covers the health hook, which
// complete runs after it drops the engine lock: a transition subscriber
// that sleeps must have finished when Flush returns. A static
// condition_estimate rule below any real condition number, without
// hold-down, makes the first solve go pending.
func TestFlushWaitsForHealthHook(t *testing.T) {
	trace, lambda := testTrace(t, 56)
	ctx := context.Background()
	mon, err := health.New(health.Config{Rules: []health.Rule{{
		Name: "condition_static", Signal: health.SignalCondition,
		Threshold: 0.5, Severity: health.SevWarning,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	var notified atomic.Bool
	mon.SetOnTransition(func(health.Alert) {
		time.Sleep(50 * time.Millisecond)
		notified.Store(true)
	})
	cfg := lineConfig(lambda)
	cfg.Monitor = mon
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close(ctx)
	for _, s := range toStream(trace[:160]) {
		if err := e.Ingest("T1", s); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if !notified.Load() {
		t.Error("Flush returned before the health hook's subscriber finished")
	}
}
