package core

import (
	"math"
	"strings"
	"testing"

	"github.com/rfid-lion/lion/internal/geom"
	lionobs "github.com/rfid-lion/lion/internal/obs"
	lionstats "github.com/rfid-lion/lion/internal/stats"
)

// TestSolveSystemEmitsIRLSTrace attaches a tracer to a weighted solve and
// checks that every IRWLS iteration lands in the trace with its residual
// norm and the condition estimate.
func TestSolveSystemEmitsIRLSTrace(t *testing.T) {
	ant := geom.V3(1, 0, 0)
	positions := circlePositions(geom.V3(0, 0, 0), 0.3, 60)
	obs := genObs(ant, positions, 0.05, 0, lionstats.NewRNG(11))
	p, err := NewProfile(obs, testLambda)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := BuildSystem(p, StridePairs(len(obs), 15), 2)
	if err != nil {
		t.Fatal(err)
	}

	tr := lionobs.NewTracer()
	opts := DefaultSolveOptions()
	opts.Trace = tr
	opts.TraceSpan = "unit"
	sol, err := SolveSystem(sys, opts)
	if err != nil {
		t.Fatal(err)
	}

	events := tr.Events()
	var iters []lionobs.Event
	var sawStart, sawEnd bool
	for _, ev := range events {
		switch ev.Kind {
		case lionobs.KindSpanStart:
			sawStart = sawStart || ev.Span == "unit"
		case lionobs.KindSpanEnd:
			sawEnd = sawEnd || ev.Span == "unit"
		case lionobs.KindIRLSIter:
			iters = append(iters, ev)
		}
	}
	if !sawStart || !sawEnd {
		t.Errorf("span events missing: start=%v end=%v", sawStart, sawEnd)
	}
	if len(iters) != sol.Iterations {
		t.Fatalf("trace has %d irls_iter events, solution reports %d iterations", len(iters), sol.Iterations)
	}
	for i, ev := range iters {
		if ev.Iter != i+1 {
			t.Errorf("event %d: Iter = %d, want %d", i, ev.Iter, i+1)
		}
		if ev.Residual < 0 {
			t.Errorf("event %d: negative residual norm %v", i, ev.Residual)
		}
		if ev.Condition < 1 {
			t.Errorf("event %d: condition estimate %v < 1", i, ev.Condition)
		}
	}
	// Traced residuals enter each re-weighting step, so the last event sits
	// one update before Solution.FinalResidual — close, but not equal.
	last := iters[len(iters)-1]
	if rel := math.Abs(last.Residual-sol.FinalResidual) / sol.FinalResidual; rel > 0.05 {
		t.Errorf("last traced residual %v far from Solution.FinalResidual %v", last.Residual, sol.FinalResidual)
	}
}

// TestAdaptiveSweepEmitsCandidateTrace runs an adaptive interval sweep with a
// tracer attached and checks that each grid cell produced a candidate event
// and each candidate solve its own labelled span with irls_iter events.
func TestAdaptiveSweepEmitsCandidateTrace(t *testing.T) {
	positions := linePositions(geom.V3(-0.4, 0, 0.4), geom.V3(0.4, 0, 0.4), 120)
	ant := geom.V3(0, 0.9, 0.4)
	obs := genObs(ant, positions, 0.02, 0, lionstats.NewRNG(12))
	intervals := []float64{0.15, 0.2, 0.25}

	tr := lionobs.NewTracer()
	opts := DefaultSolveOptions()
	opts.Trace = tr
	res, err := AdaptiveLocate2DLine(obs, testLambda, intervals, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) != len(intervals) {
		t.Fatalf("sweep evaluated %d candidates, want %d", len(res.All), len(intervals))
	}

	var cands, irls, candSpans int
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case lionobs.KindCandidate:
			cands++
			if ev.Interval <= 0 {
				t.Errorf("candidate event missing interval: %+v", ev)
			}
		case lionobs.KindIRLSIter:
			irls++
			if strings.HasPrefix(ev.Span, "cand[") {
				candSpans++
			}
		}
	}
	if cands != len(intervals) {
		t.Errorf("candidate events = %d, want %d", cands, len(intervals))
	}
	if irls == 0 {
		t.Error("no irls_iter events inside the adaptive sweep")
	}
	if candSpans == 0 {
		t.Error("no irls_iter event carried a cand[...] span label")
	}
}
