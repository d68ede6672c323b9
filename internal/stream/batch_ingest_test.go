package stream

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/obs"
)

// countSolver counts windows; the estimate itself is irrelevant here.
func countSolver(win []core.PosPhase, tr *obs.Tracer) (*core.Solution, error) {
	return &core.Solution{}, nil
}

func batchOf(tag string, n int, t0 time.Duration) []Tagged {
	out := make([]Tagged, n)
	for i := range out {
		out[i] = Tagged{Tag: tag, Sample: Sample{
			Time:  t0 + time.Duration(i)*time.Millisecond,
			Pos:   geom.V3(float64(i)*0.01, 0, 0.4),
			Phase: float64(i%628) / 100,
		}}
	}
	return out
}

// TestIngestTaggedMatchesPerSample feeds the same interleaved multi-tag
// stream through Ingest and through IngestTagged and asserts identical
// session state: window lengths, counters, and published estimates.
func TestIngestTaggedMatchesPerSample(t *testing.T) {
	mk := func() *Engine {
		e, err := New(Config{WindowSize: 32, MinSamples: 4, SolveEvery: 4, Workers: 1, Solver: countSolver})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	single, batched := mk(), mk()
	defer single.Close(context.Background())
	defer batched.Close(context.Background())

	var batch []Tagged
	for i := 0; i < 120; i++ {
		tag := [3]string{"A", "B", "C"}[i%3]
		batch = append(batch, Tagged{Tag: tag, Sample: Sample{
			Time:  time.Duration(i) * time.Millisecond,
			Pos:   geom.V3(float64(i)*0.01, 0, 0.4),
			Phase: float64(i) / 50,
		}})
	}
	for _, ts := range batch {
		if err := single.Ingest(ts.Tag, ts.Sample); err != nil {
			t.Fatal(err)
		}
	}
	accepted, dropped, err := batched.IngestTagged(batch)
	if err != nil || accepted != len(batch) || dropped != 0 {
		t.Fatalf("IngestTagged = %d/%d, %v; want %d/0, nil", accepted, dropped, err, len(batch))
	}
	ctx := context.Background()
	if err := single.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := batched.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{"A", "B", "C"} {
		if a, b := windowLen(single, tag), windowLen(batched, tag); a != b {
			t.Errorf("tag %s window %d vs %d", tag, b, a)
		}
		ea, aok := single.Latest(tag)
		eb, bok := batched.Latest(tag)
		if aok != bok || ea.Window != eb.Window || ea.From != eb.From || ea.To != eb.To {
			t.Errorf("tag %s estimates diverge: %+v vs %+v", tag, eb, ea)
		}
	}
	ms, mb := single.Metrics(), batched.Metrics()
	if ms.Ingested != mb.Ingested || ms.Tags != mb.Tags {
		t.Errorf("counters diverge: single %+v batched %+v", ms, mb)
	}
}

func TestIngestTaggedDropsBadSamplesAndContinues(t *testing.T) {
	e, err := New(Config{WindowSize: 8, MinSamples: 4, Workers: 1, Solver: countSolver})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close(context.Background())

	batch := batchOf("T1", 4, 0)
	batch = append(batch, Tagged{Tag: "", Sample: Sample{Time: 99}})
	batch = append(batch, Tagged{Tag: "T1", Sample: Sample{Time: 100, Phase: math.NaN()}})
	batch = append(batch, batchOf("T1", 2, 200*time.Millisecond)...)

	accepted, dropped, err := e.IngestTagged(batch)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 6 || dropped != 2 {
		t.Errorf("accepted %d dropped %d, want 6/2", accepted, dropped)
	}
	if got := e.Metrics().Rejected; got != 1 {
		t.Errorf("rejected counter %d, want 1 (only the NaN sample)", got)
	}
	if n := windowLen(e, "T1"); n != 6 {
		t.Errorf("window length %d, want 6", n)
	}
}

func TestIngestTaggedClosed(t *testing.T) {
	e, err := New(Config{WindowSize: 8, Workers: 1, Solver: countSolver})
	if err != nil {
		t.Fatal(err)
	}
	e.Close(context.Background())
	if _, _, err := e.IngestTagged(batchOf("T1", 3, 0)); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}
