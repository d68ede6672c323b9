package stream

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/obs"
)

// TestTracedIngestPublishesSpansAndSLOs drives one sampled batch through a
// factory-backed engine and checks the observability fan-out: the estimate
// carries a QueueWait distinct from Latency, the span log receives
// queue_wait/solve/publish spans under the trace id, and the staleness
// histogram records the upstream origin and carries that trace as an exemplar.
func TestTracedIngestPublishesSpansAndSLOs(t *testing.T) {
	trace, lambda := testTrace(t, 11)
	cfg := incrConfig(t, lambda, nil, nil)
	cfg.Spans = obs.NewSpanLog("liond", 256)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close(context.Background())
	ctx := context.Background()

	// Warm with untraced samples so the traced batch triggers exactly one
	// additional solve.
	var batch []Tagged
	for _, s := range trace[:300] {
		batch = append(batch, Tagged{Tag: "T1", Sample: Sample{Time: s.Time, Pos: s.TagPos, Phase: s.Phase}})
	}
	if acc, _, err := e.IngestTagged(batch); err != nil || acc != 300 {
		t.Fatalf("warm ingest: accepted %d err %v", acc, err)
	}
	if err := e.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if cfg.Spans.Len() != 0 {
		t.Fatalf("untraced ingest recorded %d spans", cfg.Spans.Len())
	}

	tc := obs.TraceContext{ID: 0xfeed, Sampled: true}
	origin := time.Now().Add(-50 * time.Millisecond) // upstream receive, in the past
	s := trace[300]
	traced := []Tagged{{Tag: "T1", Sample: Sample{Time: s.Time, Pos: s.TagPos, Phase: s.Phase}}}
	if acc, _, err := e.IngestTaggedTraced(traced, tc, origin); err != nil || acc != 1 {
		t.Fatalf("traced ingest: accepted %d err %v", acc, err)
	}
	if err := e.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	est, ok := e.Latest("T1")
	if !ok || est.Err != nil {
		t.Fatalf("no clean estimate: %+v", est)
	}
	if est.QueueWait <= 0 {
		t.Errorf("estimate queue wait = %v, want > 0", est.QueueWait)
	}

	spans := cfg.Spans.Spans(tc.ID)
	stages := make(map[string]obs.PipeSpan, len(spans))
	for _, sp := range spans {
		stages[sp.Stage] = sp
	}
	for _, stage := range []string{"queue_wait", "solve", "publish"} {
		sp, ok := stages[stage]
		if !ok {
			t.Fatalf("missing %q span; got %+v", stage, spans)
		}
		if sp.Tag != "T1" || sp.Service != "liond" {
			t.Errorf("%q span mis-attributed: %+v", stage, sp)
		}
	}
	if stages["queue_wait"].Start > stages["solve"].Start || stages["solve"].Start > stages["publish"].Start {
		t.Errorf("span starts out of pipeline order: %+v", stages)
	}

	// Staleness was measured from the upstream origin, so its newest and
	// largest value must exceed the 50ms head start, and the exemplar
	// carries the trace id.
	stale, ok := e.Registry().FindHistogram("lion_stream_staleness_seconds")
	if !ok {
		t.Fatal("staleness histogram not registered")
	}
	if max, _ := stale.Quantile(100); max < 0.05 {
		t.Fatalf("staleness max %v, want >= 0.05", max)
	}
	var sb strings.Builder
	e.Registry().WritePrometheus(&sb)
	if want := `trace_id="000000000000feed"`; !strings.Contains(sb.String(), want) {
		t.Errorf("exposition lacks staleness exemplar %s", want)
	}
	for _, name := range []string{"lion_stream_queue_wait_seconds", "lion_stream_publish_latency_seconds"} {
		if h, ok := e.Registry().FindHistogram(name); !ok || h.Count() == 0 {
			t.Errorf("%s recorded no observations", name)
		}
	}
}

// TestUntracedZeroAllocs is the PR's carrying constraint at the engine layer:
// with a span log configured but sampling off, the complete pipeline step —
// batched ingest, dispatch, session solve, SLO observation, publication —
// allocates nothing in steady state.
func TestUntracedZeroAllocs(t *testing.T) {
	trace, lambda := testTrace(t, 7)
	if len(trace) < 900 {
		t.Fatalf("trace too short: %d", len(trace))
	}
	cfg := incrConfig(t, lambda, nil, nil)
	cfg.Spans = obs.NewSpanLog("liond", 256)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close(context.Background())
	ctx := context.Background()

	sampler := obs.NewSampler(1<<30, 1) // samples once, then never again
	sampler.Next()
	batch := make([]Tagged, 1)
	next := 0
	step := func() {
		s := trace[next]
		next++
		batch[0] = Tagged{Tag: "T1", Sample: Sample{Time: s.Time, Pos: s.TagPos, Phase: s.Phase}}
		tc := sampler.Next()
		if tc.Sampled {
			t.Fatal("sampler unexpectedly sampled")
		}
		if acc, _, err := e.IngestTaggedTraced(batch, tc, time.Time{}); err != nil || acc != 1 {
			t.Fatalf("ingest: accepted %d err %v", acc, err)
		}
		if err := e.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for next < 400 { // warm: fill window, size buffers, cross rebuilds
		step()
	}
	allocs := testing.AllocsPerRun(300, step)
	if allocs != 0 {
		t.Errorf("untraced ingest+solve+publish allocates %.1f times per run, want 0", allocs)
	}
	if est, ok := e.Latest("T1"); !ok || est.Err != nil {
		t.Fatalf("no clean estimate after alloc run: %+v", est)
	}
	if cfg.Spans.Len() != 0 {
		t.Errorf("untraced run recorded %d spans", cfg.Spans.Len())
	}
	if h, ok := e.Registry().FindHistogram("lion_stream_staleness_seconds"); !ok || h.Count() == 0 {
		t.Error("staleness histogram idle despite published estimates")
	}
}
