package core

import (
	"testing"

	"github.com/rfid-lion/lion/internal/geom"
	lionobs "github.com/rfid-lion/lion/internal/obs"
	lionstats "github.com/rfid-lion/lion/internal/stats"
)

func benchLineObs() []PosPhase {
	positions := linePositions(geom.V3(-0.4, 0, 0.4), geom.V3(0.4, 0, 0.4), 120)
	ant := geom.V3(0, 0.9, 0.4)
	return genObs(ant, positions, 0.02, 0, lionstats.NewRNG(13))
}

// BenchmarkLocate2DLine is the untraced baseline for the tracing-overhead
// claim in bench_report.txt: a nil tracer must cost nothing on this path.
func BenchmarkLocate2DLine(b *testing.B) {
	obs := benchLineObs()
	opts := DefaultSolveOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Locate2DLine(obs, testLambda, 0.2, true, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLineSessionSlide measures one slid window through a warm
// LineSession on the unweighted linear path — the steady-state streamed
// re-solve (lionbench's stream_resolve_incremental).
func BenchmarkLineSessionSlide(b *testing.B) {
	positions := linePositions(geom.V3(-1.2, 0, 0.4), geom.V3(1.2, 0, 0.4), 960)
	ant := geom.V3(0, 0.9, 0.4)
	strm := genObs(ant, positions, 0.02, 0, lionstats.NewRNG(13))
	const window = 120
	sess, err := NewLineSession(testLambda, []float64{0.05, 0.12}, true)
	if err != nil {
		b.Fatal(err)
	}
	var sol Solution
	lo := 0
	step := func() {
		if lo+window > len(strm) {
			lo = 0
		}
		if err := sess.Locate(strm[lo:lo+window], SolveOptions{}, &sol); err != nil {
			b.Fatal(err)
		}
		lo++
	}
	for i := 0; i < 400; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkLocate2DLineTraced runs the same solve with a live tracer,
// resetting it each iteration so the event buffer does not grow unbounded.
func BenchmarkLocate2DLineTraced(b *testing.B) {
	obs := benchLineObs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := DefaultSolveOptions()
		opts.Trace = lionobs.NewTracer()
		if _, err := Locate2DLine(obs, testLambda, 0.2, true, opts); err != nil {
			b.Fatal(err)
		}
	}
}
