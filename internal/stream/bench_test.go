package stream

import (
	"context"
	"testing"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
)

// BenchmarkStreamIngest measures the pure ingest path — ring-buffer push,
// span eviction check, trigger bookkeeping — with solving disabled by an
// unreachable SolveEvery.
func BenchmarkStreamIngest(b *testing.B) {
	trace, lambda := testTrace(b, 100)
	e, err := New(Config{
		WindowSize: 256,
		MinSamples: 8,
		SolveEvery: 1 << 30,
		Workers:    1,
		Solver:     Line2DSolver(lambda, []float64{0.1}, true, core.DefaultSolveOptions()),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close(context.Background())
	samples := toStream(trace)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; b.Loop(); i++ {
		if err := e.Ingest("T1", samples[i%len(samples)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowSolve measures one full window solve: preprocessing
// (unwrap + smooth) plus the interval-paired WLS line localization over a
// 256-sample window — the unit of work the pool executes per trigger.
func BenchmarkWindowSolve(b *testing.B) {
	trace, lambda := testTrace(b, 101)
	window := toStream(trace[:256])
	solver := Line2DSolver(lambda, []float64{0.1}, true, core.DefaultSolveOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		if _, err := SolveWindow(window, 9, solver, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLine2DSolver measures the batch line solver alone on a warm,
// preprocessed 256-sample window — the solve the conveyor pipeline runs per
// trigger, without the preprocessing BenchmarkWindowSolve adds.
func BenchmarkLine2DSolver(b *testing.B) {
	trace, lambda := testTrace(b, 101)
	samples := toStream(trace[:256])
	positions := make([]geom.Vec3, len(samples))
	phases := make([]float64, len(samples))
	for i, s := range samples {
		positions[i], phases[i] = s.Pos, s.Phase
	}
	win, err := core.Preprocess(positions, phases, 9)
	if err != nil {
		b.Fatal(err)
	}
	solver := Line2DSolver(lambda, []float64{0.1}, true, core.DefaultSolveOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		if _, err := solver(win, nil); err != nil {
			b.Fatal(err)
		}
	}
}
