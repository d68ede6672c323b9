// The -json mode: a fixed suite of micro-benchmarks over the hot solve and
// monitoring paths, run through testing.Benchmark and emitted as one JSON
// document. Committed snapshots (BENCH_<pr>.json) accumulate the perf
// trajectory across PRs; the schema is additive-only.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/benchfmt"
	"github.com/rfid-lion/lion/internal/calib"
	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/health"
	"github.com/rfid-lion/lion/internal/obs"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/stats"
	"github.com/rfid-lion/lion/internal/stream"
	"github.com/rfid-lion/lion/internal/wire"
)

// benchObs builds the standard 120-read line scan used by every solver
// micro-benchmark: tag marching along x at 0.4 m height, antenna at
// (0, 0.9, 0.4), exact linear-model phases plus N(0, 0.02) noise.
func benchObs(lambda float64) []core.PosPhase {
	ant := geom.V3(0, 0.9, 0.4)
	rng := stats.NewRNG(13)
	obs := make([]core.PosPhase, 120)
	for i := range obs {
		pos := geom.V3(-0.4+0.8*float64(i)/119, 0, 0.4)
		theta := rf.PhaseOfDistance(ant.Dist(pos), lambda) + rng.Normal(0, 0.02)
		obs[i] = core.PosPhase{Pos: pos, Theta: theta}
	}
	return obs
}

// benchStream extends benchObs to a longer march for the sliding-window
// benchmarks: n reads from x = −1.2 m to +1.2 m at the same height and noise.
// PhaseOfDistance is already unwrapped, so every window of the slice is a
// valid unwrapped profile.
func benchStream(lambda float64, n int) []core.PosPhase {
	ant := geom.V3(0, 0.9, 0.4)
	rng := stats.NewRNG(13)
	obs := make([]core.PosPhase, n)
	for i := range obs {
		pos := geom.V3(-1.2+2.4*float64(i)/float64(n-1), 0, 0.4)
		theta := rf.PhaseOfDistance(ant.Dist(pos), lambda) + rng.Normal(0, 0.02)
		obs[i] = core.PosPhase{Pos: pos, Theta: theta}
	}
	return obs
}

// benchIngestBatch builds the standard ingest body for the codec decode
// benchmarks: one wire frame's worth of samples spread over eight tags, the
// mixed-stream shape lionroute forwards.
func benchIngestBatch() []dataset.TaggedSample {
	rng := stats.NewRNG(29)
	batch := make([]dataset.TaggedSample, 4096)
	for i := range batch {
		batch[i] = dataset.TaggedSample{
			Tag:     fmt.Sprintf("BENCH-%d", i%8),
			TimeS:   float64(i) * 0.01,
			X:       -1.2 + 2.4*float64(i)/float64(len(batch)),
			Y:       0.05 * rng.Normal(0, 1),
			Z:       0.4,
			Phase:   rf.WrapPhase(rng.Normal(3, 1)),
			RSSI:    -55 + rng.Normal(0, 2),
			Segment: i / 512,
			Channel: i % 16,
		}
	}
	return batch
}

// benchSuite enumerates the tracked micro-benchmarks. Names are stable
// identifiers: comparisons across snapshots key on them.
func benchSuite() []struct {
	name string
	fn   func(*testing.B)
} {
	lambda := rf.DefaultBand().Wavelength()
	lineObs := benchObs(lambda)
	opts := core.DefaultSolveOptions()

	monitored, err := health.New(health.Config{Calibrations: []health.Calibration{{
		Antenna: "A1", Center: geom.V3(0, 0.9, 0.4), Offset: 1.3, Lambda: lambda,
	}}})
	if err != nil {
		panic(err) // static config; cannot fail
	}
	solveObs := health.SolveObservation{Tag: "T1", Condition: 10}

	return []struct {
		name string
		fn   func(*testing.B)
	}{
		{"locate_2d_line", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Locate2DLine(lineObs, lambda, 0.2, true, opts); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"line2d_window_solve", func(b *testing.B) {
			// The window solve both pipebench workloads run per trigger:
			// stream.SolveWindow over 256 wrapped reads, smoothing 9,
			// then the weighted batch line solver at liond's default
			// 0.2 m pairing interval.
			strm := benchStream(lambda, 256)
			win := make([]stream.Sample, len(strm))
			for i, o := range strm {
				win[i] = stream.Sample{Time: time.Duration(i) * 10 * time.Millisecond, Pos: o.Pos, Phase: rf.WrapPhase(o.Theta)}
			}
			solver := stream.Line2DSolver(lambda, []float64{0.2}, true, opts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stream.SolveWindow(win, 9, solver, nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"solve_system_ws", func(b *testing.B) {
			// The workspace solve over the same reduced line system that
			// locate_2d_line assembles per call: steady-state re-solves of a
			// fixed-shape system must be allocation-free.
			prof, err := core.NewProfile(lineObs, lambda)
			if err != nil {
				b.Fatal(err)
			}
			positions := make([]geom.Vec3, len(lineObs))
			for i, o := range lineObs {
				positions[i] = o.Pos
			}
			pairs := core.SeparationPairs(positions, 0.2)
			sys, err := core.BuildSystem(prof, pairs, 2)
			if err != nil {
				b.Fatal(err)
			}
			var ws core.SolveWorkspace
			var sol core.Solution
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := core.SolveSystemInto(&ws, sys, opts, &sol); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"stream_resolve_incremental", func(b *testing.B) {
			// One slid window per op through a warm core.LineSession: the
			// per-re-solve cost of the stream engine's line solve, which
			// builds each window's system on the session's own workspace.
			// Unweighted, so IRLS refinement is left out; the weighted
			// solve is measured by stream_engine_resolve. Target: 0 allocs.
			strm := benchStream(lambda, 960)
			const window = 120
			sess, err := core.NewLineSession(lambda, []float64{0.05, 0.12}, true)
			if err != nil {
				b.Fatal(err)
			}
			unweighted := core.SolveOptions{}
			var sol core.Solution
			lo := 0
			step := func() {
				if lo+window > len(strm) {
					lo = 0
				}
				if err := sess.Locate(strm[lo:lo+window], unweighted, &sol); err != nil {
					b.Fatal(err)
				}
				lo++
			}
			for i := 0; i < 400; i++ {
				step() // warm: size every buffer
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		}},
		{"stream_engine_resolve", func(b *testing.B) {
			// The full engine path per accepted sample: Ingest, snapshot
			// dispatch, unwrap, session locate, publication, Flush. The
			// tag ping-pongs along the track so the stream never has a
			// position seam regardless of b.N.
			factory, err := stream.IncrementalLine2DFactory(lambda, []float64{0.05, 0.12}, true, opts)
			if err != nil {
				b.Fatal(err)
			}
			e, err := stream.New(stream.Config{
				WindowSize: 120, MinSamples: 16, SolveEvery: 1, Workers: 1,
				SolverFactory: factory,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close(context.Background())
			ant := geom.V3(0, 0.9, 0.4)
			ctx := context.Background()
			n := 0
			step := func() {
				const half = 960 // samples per one-way pass
				k := n % (2 * half)
				if k > half {
					k = 2*half - k
				}
				pos := geom.V3(-1.2+2.4*float64(k)/half, 0, 0.4)
				phase := rf.WrapPhase(rf.PhaseOfDistance(ant.Dist(pos), lambda))
				s := stream.Sample{Time: time.Duration(n) * time.Millisecond, Pos: pos, Phase: phase}
				if err := e.Ingest("T1", s); err != nil {
					b.Fatal(err)
				}
				if err := e.Flush(ctx); err != nil {
					b.Fatal(err)
				}
				n++
			}
			for n < 400 {
				step()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		}},
		{"staleness_overhead", func(b *testing.B) {
			// The same per-sample engine step as stream_engine_resolve, but
			// through the traced ingest entry point with the full pipeline
			// instrumentation armed: span log configured, per-batch sampling
			// decision, queue-wait/staleness/publish-latency observation.
			// The batch is never sampled, so the delta against
			// stream_engine_resolve is the steady-state cost of the tracing
			// layer — and the guarded allocation count is 0: tracing must be
			// free until a batch is actually sampled.
			factory, err := stream.IncrementalLine2DFactory(lambda, []float64{0.05, 0.12}, true, opts)
			if err != nil {
				b.Fatal(err)
			}
			e, err := stream.New(stream.Config{
				WindowSize: 120, MinSamples: 16, SolveEvery: 1, Workers: 1,
				SolverFactory: factory,
				Spans:         obs.NewSpanLog("bench", 256),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close(context.Background())
			ant := geom.V3(0, 0.9, 0.4)
			ctx := context.Background()
			sampler := obs.NewSampler(1<<30, 5) // samples once, then never again
			sampler.Next()
			batch := make([]stream.Tagged, 1)
			n := 0
			step := func() {
				const half = 960
				k := n % (2 * half)
				if k > half {
					k = 2*half - k
				}
				pos := geom.V3(-1.2+2.4*float64(k)/half, 0, 0.4)
				phase := rf.WrapPhase(rf.PhaseOfDistance(ant.Dist(pos), lambda))
				batch[0] = stream.Tagged{Tag: "T1", Sample: stream.Sample{
					Time: time.Duration(n) * time.Millisecond, Pos: pos, Phase: phase,
				}}
				if acc, _, err := e.IngestTaggedTraced(batch, sampler.Next(), time.Time{}); err != nil || acc != 1 {
					b.Fatalf("ingest: accepted %d err %v", acc, err)
				}
				if err := e.Flush(ctx); err != nil {
					b.Fatal(err)
				}
				n++
			}
			for n < 400 {
				step()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		}},
		{"wire_decode", func(b *testing.B) {
			// One 4096-sample binary ingest body decoded per op — the
			// cluster forwarding hot path. The ≥5x margin over
			// ndjson_decode is the wire codec's reason to exist; the
			// committed snapshot records both sides of the ratio.
			var body bytes.Buffer
			if err := (wire.Codec{}).Encode(&body, benchIngestBatch()); err != nil {
				b.Fatal(err)
			}
			raw := body.Bytes()
			b.SetBytes(int64(len(raw)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := wire.DecodeIngest(bytes.NewReader(raw)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ndjson_decode", func(b *testing.B) {
			// The same 4096 samples as NDJSON — the compatibility format's
			// decode cost, the denominator of the wire speedup.
			var body bytes.Buffer
			if err := (dataset.NDJSON{}).Encode(&body, benchIngestBatch()); err != nil {
				b.Fatal(err)
			}
			raw := body.Bytes()
			b.SetBytes(int64(len(raw)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dataset.DecodeIngest(bytes.NewReader(raw)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"phase_offset_calibration", func(b *testing.B) {
			positions := make([]geom.Vec3, len(lineObs))
			wrapped := make([]float64, len(lineObs))
			for i, o := range lineObs {
				positions[i] = o.Pos
				wrapped[i] = rf.WrapPhase(o.Theta + 1.3)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.PhaseOffset(positions, wrapped, geom.V3(0, 0.9, 0.4), lambda); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"recal_solve", func(b *testing.B) {
			// One closed-loop recalibration re-solve per op: the adaptive
			// Eq. 17 center+offset estimate plus residual scoring over a
			// 128-sample live window — the cost of acting on one drift
			// alert (internal/recal), paid off the solve path on the
			// controller's own goroutine.
			strm := benchStream(lambda, 128)
			positions := make([]geom.Vec3, len(strm))
			wrapped := make([]float64, len(strm))
			for i, o := range strm {
				positions[i] = o.Pos
				wrapped[i] = rf.WrapPhase(o.Theta + 1.3)
			}
			cfg := calib.Config{Lambda: lambda, Adaptive: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := calib.EstimateLine(positions, wrapped, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if calib.OffsetResidualRMS(positions, wrapped, res.Center, res.Offset, lambda) > 0.1 {
					b.Fatal("recalibration did not fit the window")
				}
			}
		}},
		{"health_observe_solve_monitored", func(b *testing.B) {
			o := solveObs
			for i := 0; i < b.N; i++ {
				o.Time = time.Duration(i) * time.Millisecond
				monitored.ObserveSolve(o)
			}
		}},
		{"health_observe_sample_monitored", func(b *testing.B) {
			pos := geom.V3(0.5, 0, 0)
			for i := 0; i < b.N; i++ {
				monitored.ObserveSample("A1", time.Duration(i), pos, 1.0)
			}
		}},
		{"health_observe_solve_nil", func(b *testing.B) {
			var m *health.Monitor
			for i := 0; i < b.N; i++ {
				m.ObserveSolve(solveObs)
			}
		}},
	}
}

// The -json mode measures the suite benchRounds times, round-robin: every
// benchmark once per round, so a noisy stretch of wall time lands on each
// benchmark once instead of on one benchmark benchRounds times. Each
// measurement runs for benchTime (testing's -test.benchtime): five 300 ms
// rounds take about 27 s on a 2-vCPU VM, 1.5 times one round at testing's
// default 1 s.
const (
	benchRounds = 5
	benchTime   = "300ms"
)

// writeBenchJSON runs the suite and writes the snapshot to path ("-" for
// stdout). ns_per_op is the median over the rounds and ns_per_op_iqr their
// interquartile range; allocs_per_op and bytes_per_op are the per-round
// maxima, so a zero-alloc pin holds in every round; iterations sums the
// rounds.
func writeBenchJSON(path string, stdout io.Writer) error {
	testing.Init()
	if err := flag.Set("test.benchtime", benchTime); err != nil {
		return err
	}
	snap := benchfmt.Snapshot{
		Schema:    benchfmt.Schema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		MaxProcs:  runtime.GOMAXPROCS(0),
	}
	suite := benchSuite()
	snap.Benchmarks = make([]benchfmt.Bench, len(suite))
	nsPerOp := make([][]float64, len(suite))
	for range benchRounds {
		for i, bm := range suite {
			fn := bm.fn
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				fn(b)
			})
			nsPerOp[i] = append(nsPerOp[i], float64(r.T.Nanoseconds())/float64(r.N))
			out := &snap.Benchmarks[i]
			out.Name = bm.name
			out.Iterations += r.N
			out.AllocsPerOp = max(out.AllocsPerOp, r.AllocsPerOp())
			out.BytesPerOp = max(out.BytesPerOp, r.AllocedBytesPerOp())
		}
	}
	for i := range snap.Benchmarks {
		b := &snap.Benchmarks[i]
		q := func(p float64) float64 {
			v, _ := stats.Percentile(nsPerOp[i], p) // never empty: benchRounds > 0
			return v
		}
		b.NsPerOp = q(50)
		b.NsPerOpIQR = q(75) - q(25)
		fmt.Fprintf(stdout, "bench %s: %d iters, %.0f ns/op (IQR %.0f over %d rounds), %d allocs/op\n",
			b.Name, b.Iterations, b.NsPerOp, b.NsPerOpIQR, benchRounds, b.AllocsPerOp)
	}
	if path == "-" {
		return writeSnapshotTo(stdout, &snap)
	}
	if err := snap.Write(path); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "benchmark snapshot written to %s\n", path)
	return nil
}

// writeSnapshotTo renders the snapshot to a stream, for -json -.
func writeSnapshotTo(w io.Writer, snap *benchfmt.Snapshot) error {
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}
