package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// TestTracingZeroOverheadWhenNil is the disabled-path contract: every tracer
// entry point on a nil *Tracer must perform zero allocations, so the hot
// solve loop can call through unconditionally.
func TestTracingZeroOverheadWhenNil(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		mark := tr.SpanAt("solve")
		tr.IRLSIter("solve", 1, 0.5, 2, 10)
		tr.Candidate("adaptive", 0.8, 0.2, 1e-3, nil)
		tr.Note("solve", "ignored")
		mark.End()
		if tr.Enabled() || tr.Len() != 0 || tr.Events() != nil {
			t.Fatal("nil tracer reported state")
		}
	})
	if allocs != 0 {
		t.Errorf("nil tracer allocated %.1f times per run, want 0", allocs)
	}
}

// TestSpanAtMatchesSpan proves a mark emits a matched span_start/span_end
// pair whose duration is the gap between them, and that the nil path
// allocates nothing.
func TestSpanAtMatchesSpan(t *testing.T) {
	tr := NewTracer()
	mark := tr.SpanAt("dispatch")
	tr.Note("dispatch", "inside")
	mark.End()

	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("got %d events, want 3", len(ev))
	}
	if ev[0].Kind != KindSpanStart || ev[0].Span != "dispatch" {
		t.Errorf("start event = %+v", ev[0])
	}
	if ev[2].Kind != KindSpanEnd || ev[2].Span != "dispatch" {
		t.Errorf("end event = %+v", ev[2])
	}
	if ev[2].DurMicros != ev[2].TMicros-ev[0].TMicros {
		t.Errorf("duration %d != end-start %d", ev[2].DurMicros, ev[2].TMicros-ev[0].TMicros)
	}

	var nilTr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		m := nilTr.SpanAt("dispatch")
		m.End()
	})
	if allocs != 0 {
		t.Errorf("nil SpanAt allocated %.1f times per run, want 0", allocs)
	}
}

func TestTracerRecordsOrderedEvents(t *testing.T) {
	tr := NewTracer()
	mark := tr.SpanAt("solve")
	tr.IRLSIter("solve", 1, 0.25, 0, 4)
	tr.IRLSIter("solve", 2, 0.125, 1, 4)
	tr.Candidate("adaptive", 0.8, 0.2, 2e-4, nil)
	tr.Candidate("adaptive", 0.6, 0.2, 0, errors.New("no solution"))
	mark.End()

	ev := tr.Events()
	if len(ev) != 6 {
		t.Fatalf("got %d events, want 6", len(ev))
	}
	kinds := []string{KindSpanStart, KindIRLSIter, KindIRLSIter, KindCandidate, KindCandidate, KindSpanEnd}
	for i, k := range kinds {
		if ev[i].Kind != k {
			t.Errorf("event %d kind = %q, want %q", i, ev[i].Kind, k)
		}
		if i > 0 && ev[i].TMicros < ev[i-1].TMicros {
			t.Errorf("timestamps not monotonic at %d: %d < %d", i, ev[i].TMicros, ev[i-1].TMicros)
		}
	}
	if ev[1].Iter != 1 || ev[1].Residual != 0.25 || ev[2].FloorHits != 1 {
		t.Errorf("irls events carry wrong fields: %+v %+v", ev[1], ev[2])
	}
	if ev[3].ScanRange != 0.8 || ev[3].Interval != 0.2 || ev[3].WResidual != 2e-4 {
		t.Errorf("candidate event wrong: %+v", ev[3])
	}
	if ev[4].Err != "no solution" {
		t.Errorf("failed candidate err = %q", ev[4].Err)
	}
	if ev[5].DurMicros < 0 {
		t.Errorf("span duration negative: %d", ev[5].DurMicros)
	}
	// Events() copies: mutating the copy must not touch the tracer.
	ev[0].Kind = "mutated"
	if tr.Events()[0].Kind != KindSpanStart {
		t.Error("Events() aliases internal storage")
	}
}

func TestTracerNDJSONRoundTrip(t *testing.T) {
	tr := NewTracer()
	defer tr.SpanAt("solve").End()
	tr.IRLSIter("solve", 1, 0.5, 0, 2)

	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	sawIter := false
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d: %v: %s", lines, err, sc.Text())
		}
		if e.Kind == KindIRLSIter {
			sawIter = true
			if e.Residual != 0.5 || e.Iter != 1 {
				t.Errorf("decoded iter event %+v", e)
			}
		}
		lines++
	}
	if lines != 2 || !sawIter {
		t.Errorf("ndjson lines = %d (irls seen %v), want 2 with an irls_iter", lines, sawIter)
	}
}
