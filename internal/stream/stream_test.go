package stream

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	lionobs "github.com/rfid-lion/lion/internal/obs"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/sim"
	"github.com/rfid-lion/lion/internal/traject"
)

// testTrace generates a seeded linear-scan trace with the software testbed:
// tag sliding 1.2 m along x at 0.1 m/s, antenna 0.8 m deep, 100 Hz reads.
func testTrace(t testing.TB, seed int64) ([]sim.Sample, float64) {
	t.Helper()
	env, err := sim.NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	reader, err := sim.NewReader(env, sim.ReaderConfig{RateHz: 100, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ant := &sim.Antenna{
		PhysicalCenter:    geom.V3(0.1, 0.8, 0),
		PhaseCenterOffset: geom.V3(0.02, -0.015, 0),
		PhaseOffset:       2.74,
	}
	tag := &sim.Tag{PhaseOffset: 0.4}
	trj, err := traject.NewLinear(geom.V3(-0.6, 0, 0), geom.V3(0.6, 0, 0), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := reader.Scan(ant, tag, trj)
	if err != nil {
		t.Fatal(err)
	}
	return samples, env.Wavelength()
}

func lineConfig(lambda float64) Config {
	// At 100 Hz and 0.1 m/s a 256-sample window spans 0.255 m, so the
	// 0.1 m pairing interval always finds pairs.
	return Config{
		WindowSize: 256,
		MinSamples: 8,
		SolveEvery: 16,
		Smooth:     9,
		Workers:    2,
		Solver:     Line2DSolver(lambda, []float64{0.1}, true, core.DefaultSolveOptions()),
	}
}

// TestStreamedMatchesBatch is the subsystem's core invariant: after replaying
// a seeded trace, the final window's streamed estimate is bit-identical to
// the offline pipeline run directly over the same samples — identical float
// operations, not merely close results.
func TestStreamedMatchesBatch(t *testing.T) {
	trace, lambda := testTrace(t, 42)
	if len(trace) <= 256 {
		t.Fatalf("trace too short: %d", len(trace))
	}
	e, err := New(lineConfig(lambda))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range trace {
		if err := e.Ingest("T1", FromSim(s)); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	est, ok := e.Latest("T1")
	if !ok {
		t.Fatal("no estimate after replay")
	}
	if est.Err != nil {
		t.Fatalf("final solve error: %v", est.Err)
	}
	if est.Window != 256 {
		t.Fatalf("final window %d, want 256", est.Window)
	}

	// Offline reference: the identical computation through core directly,
	// without going through SolveWindow.
	tail := trace[len(trace)-256:]
	positions := make([]geom.Vec3, len(tail))
	phases := make([]float64, len(tail))
	for i, s := range tail {
		positions[i] = s.TagPos
		phases[i] = s.Phase
	}
	obs, err := core.Preprocess(positions, phases, 9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Locate2DLineIntervals(obs, lambda, []float64{0.1}, true, core.DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}

	got := est.Solution
	if got.Position != want.Position {
		t.Errorf("streamed position %v != offline %v", got.Position, want.Position)
	}
	if got.RefDistance != want.RefDistance {
		t.Errorf("streamed d_r %v != offline %v", got.RefDistance, want.RefDistance)
	}
	if got.MeanResidual != want.MeanResidual || got.RMSResidual != want.RMSResidual {
		t.Errorf("streamed residuals (%v, %v) != offline (%v, %v)",
			got.MeanResidual, got.RMSResidual, want.MeanResidual, want.RMSResidual)
	}
	if est.From != tail[0].Time || est.To != tail[len(tail)-1].Time {
		t.Errorf("window span [%v, %v], want [%v, %v]", est.From, est.To, tail[0].Time, tail[len(tail)-1].Time)
	}
	// Sanity: the estimate lands near the true phase center (0.12, 0.785, 0).
	// A 0.255 m aperture at 0.8 m depth conditions the depth axis weakly, so
	// this is a plausibility guard, not an accuracy claim.
	if d := got.Position.Dist(geom.V3(0.12, 0.785, 0)); d > 0.15 {
		t.Errorf("estimate %v is %.3f m from truth", got.Position, d)
	}
}

func TestEmptyWindowNeverSolves(t *testing.T) {
	_, lambda := testTrace(t, 1)
	e, err := New(lineConfig(lambda))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if _, ok := e.Latest("T1"); ok {
		t.Error("estimate for a tag that never ingested")
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	if m := e.Metrics(); m.Solves != 0 {
		t.Errorf("solves = %d, want 0", m.Solves)
	}
}

func TestSingleSampleBelowMinimumNeverSolves(t *testing.T) {
	trace, lambda := testTrace(t, 2)
	e, err := New(lineConfig(lambda))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest("T1", FromSim(trace[0])); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Latest("T1"); ok {
		t.Error("estimate from a single sample below MinSamples")
	}
	if m := e.Metrics(); m.Solves != 0 || m.Ingested != 1 {
		t.Errorf("solves=%d ingested=%d, want 0/1", m.Solves, m.Ingested)
	}
}

func TestSolveErrorIsSurfaced(t *testing.T) {
	trace, lambda := testTrace(t, 3)
	cfg := lineConfig(lambda)
	cfg.MinSamples = 2
	cfg.SolveEvery = 2
	cfg.Smooth = 0
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two samples cannot feed Locate2DLineIntervals (needs >= 4).
	for _, s := range trace[:2] {
		if err := e.Ingest("T1", FromSim(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	est, ok := e.Latest("T1")
	if !ok {
		t.Fatal("no estimate recorded")
	}
	if !errors.Is(est.Err, core.ErrTooFewObservations) {
		t.Errorf("estimate err = %v, want ErrTooFewObservations", est.Err)
	}
	if m := e.Metrics(); m.SolveErrors == 0 {
		t.Error("solve error not counted")
	}
}

func TestExactCapacityThenOverflow(t *testing.T) {
	trace, lambda := testTrace(t, 4)
	cfg := lineConfig(lambda)
	cfg.WindowSize = 16
	cfg.SolveEvery = 1 << 30 // only the Close flush solves
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range trace[:16] {
		if err := e.Ingest("T1", FromSim(s)); err != nil {
			t.Fatal(err)
		}
	}
	if m := e.Metrics(); m.DroppedOverflow != 0 {
		t.Errorf("dropped %d at exact capacity, want 0", m.DroppedOverflow)
	}
	if got := e.WindowLen("T1"); got != 16 {
		t.Errorf("window length %d, want 16", got)
	}
	if err := e.Ingest("T1", FromSim(trace[16])); err != nil {
		t.Fatal(err)
	}
	if m := e.Metrics(); m.DroppedOverflow != 1 {
		t.Errorf("dropped %d after overflow, want 1", m.DroppedOverflow)
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	est, ok := e.Latest("T1")
	if !ok {
		t.Fatal("no final estimate recorded")
	}
	// The solve itself may fail on the tiny 15 mm aperture; this test is
	// about eviction bookkeeping, not solvability.
	// The window slid: it must start at trace[1], not trace[0].
	if est.From != trace[1].Time || est.To != trace[16].Time {
		t.Errorf("window [%v, %v], want [%v, %v]", est.From, est.To, trace[1].Time, trace[16].Time)
	}
}

func TestRejectNewestPolicy(t *testing.T) {
	trace, lambda := testTrace(t, 5)
	cfg := lineConfig(lambda)
	cfg.WindowSize = 8
	cfg.Policy = RejectNewest
	cfg.SolveEvery = 1 << 30
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range trace[:8] {
		if err := e.Ingest("T1", FromSim(s)); err != nil {
			t.Fatal(err)
		}
	}
	err = e.Ingest("T1", FromSim(trace[8]))
	if !errors.Is(err, ErrWindowFull) {
		t.Fatalf("ingest at full window = %v, want ErrWindowFull", err)
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	est, ok := e.Latest("T1")
	if !ok {
		t.Fatal("no estimate")
	}
	// The original window is preserved: it still starts at trace[0].
	if est.From != trace[0].Time || est.To != trace[7].Time {
		t.Errorf("window [%v, %v], want [%v, %v]", est.From, est.To, trace[0].Time, trace[7].Time)
	}
}

func TestWindowSpanEviction(t *testing.T) {
	_, lambda := testTrace(t, 6)
	cfg := lineConfig(lambda)
	cfg.WindowSpan = time.Second
	cfg.SolveEvery = 1 << 30
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(t time.Duration, x float64) Sample {
		return Sample{Time: t, Pos: geom.V3(x, 0, 0), Phase: 1}
	}
	for _, s := range []Sample{
		mk(0, 0), mk(500*time.Millisecond, 0.05), mk(2*time.Second, 0.2),
	} {
		if err := e.Ingest("T1", s); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.WindowLen("T1"); got != 1 {
		t.Errorf("window length %d after span eviction, want 1", got)
	}
	if m := e.Metrics(); m.DroppedAge != 2 {
		t.Errorf("dropped by age = %d, want 2", m.DroppedAge)
	}
	e.Close(context.Background())
}

func TestSubscribePublishesEstimates(t *testing.T) {
	trace, lambda := testTrace(t, 7)
	e, err := New(lineConfig(lambda))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := e.Subscribe()
	defer cancel()
	for _, s := range trace[:256] {
		if err := e.Ingest("T1", FromSim(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	var got []Estimate
	for est := range ch {
		got = append(got, est)
	}
	if len(got) == 0 {
		t.Fatal("no estimates published")
	}
	var lastSeq uint64
	for _, est := range got {
		if est.Tag != "T1" {
			t.Errorf("estimate for tag %q", est.Tag)
		}
		if est.Seq <= lastSeq {
			t.Errorf("sequence went %d -> %d", lastSeq, est.Seq)
		}
		lastSeq = est.Seq
	}
	latest, _ := e.Latest("T1")
	if got[len(got)-1].Seq != latest.Seq {
		t.Errorf("last published seq %d != latest %d", got[len(got)-1].Seq, latest.Seq)
	}
}

func TestCoalescingUnderSlowSolver(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	solver := func(obs []core.PosPhase, _ *lionobs.Tracer) (*core.Solution, error) {
		started <- struct{}{}
		<-release
		return &core.Solution{}, nil
	}
	e, err := New(Config{
		WindowSize: 8, MinSamples: 1, SolveEvery: 1, Workers: 1, Solver: solver,
	})
	if err != nil {
		t.Fatal(err)
	}
	// First sample dispatches and blocks in the solver; three more samples
	// each trigger a snapshot: one becomes pending, two replace it.
	if err := e.Ingest("T1", Sample{Pos: geom.V3(0, 0, 0), Phase: 1}); err != nil {
		t.Fatal(err)
	}
	<-started // the solver now owns the only worker
	for i := 1; i < 4; i++ {
		if err := e.Ingest("T1", Sample{Pos: geom.V3(float64(i)*0.1, 0, 0), Phase: 1}); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.Solves != 2 {
		t.Errorf("solves = %d, want 2 (first + coalesced latest)", m.Solves)
	}
	if m.Coalesced != 2 {
		t.Errorf("coalesced = %d, want 2", m.Coalesced)
	}
	est, _ := e.Latest("T1")
	if est.Window != 4 {
		t.Errorf("final window %d, want 4 (the newest snapshot)", est.Window)
	}
}

func TestIngestValidation(t *testing.T) {
	_, lambda := testTrace(t, 8)
	e, err := New(lineConfig(lambda))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close(context.Background())
	if err := e.Ingest("", Sample{Phase: 1}); !errors.Is(err, ErrNoTag) {
		t.Errorf("empty tag = %v, want ErrNoTag", err)
	}
	if err := e.Ingest("T1", Sample{Phase: math.NaN()}); !errors.Is(err, ErrBadSample) {
		t.Errorf("NaN phase = %v, want ErrBadSample", err)
	}
	if err := e.Ingest("T1", Sample{Phase: math.Inf(1)}); !errors.Is(err, ErrBadSample) {
		t.Errorf("Inf phase = %v, want ErrBadSample", err)
	}
	if err := e.Ingest("T1", Sample{Pos: geom.V3(math.Inf(1), 0, 0), Phase: 1}); !errors.Is(err, ErrBadSample) {
		t.Errorf("Inf position = %v, want ErrBadSample", err)
	}
	if m := e.Metrics(); m.Rejected != 3 {
		t.Errorf("rejected = %d, want 3", m.Rejected)
	}
}

func TestCloseSemantics(t *testing.T) {
	trace, lambda := testTrace(t, 9)
	e, err := New(lineConfig(lambda))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range toStream(trace[:64]) {
		if err := e.Ingest("T1", s); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest("T1", FromSim(trace[64])); !errors.Is(err, ErrClosed) {
		t.Errorf("ingest after close = %v, want ErrClosed", err)
	}
	if err := e.Close(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("second close = %v, want ErrClosed", err)
	}
	// Close flushed the dirty window even though SolveEvery hadn't fired.
	if _, ok := e.Latest("T1"); !ok {
		t.Error("close did not flush the dirty window")
	}
}

func TestBadConfigs(t *testing.T) {
	_, lambda := testTrace(t, 10)
	solver := Line2DSolver(lambda, []float64{0.2}, true, core.DefaultSolveOptions())
	cases := []Config{
		{WindowSize: 0, Solver: solver},
		{WindowSize: 8},
		{WindowSize: 8, Smooth: 4, Solver: solver},
		{WindowSize: 8, WindowSpan: -time.Second, Solver: solver},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("config %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

// TestMinSamplesAboveWindowRejected: a window never holds more than
// WindowSize samples, so MinSamples above it (explicit, or the default 4
// against a smaller window) means no solve could ever run. New must refuse
// it rather than build an engine that never publishes.
func TestMinSamplesAboveWindowRejected(t *testing.T) {
	solver := func([]core.PosPhase, *lionobs.Tracer) (*core.Solution, error) {
		return &core.Solution{}, nil
	}
	for _, cfg := range []Config{
		{WindowSize: 8, MinSamples: 16, Solver: solver},
		{WindowSize: 256, MinSamples: 300, Solver: solver},
		{WindowSize: 3, Solver: solver},
	} {
		if e, err := New(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("window %d, min samples %d: err = %v, want ErrBadConfig",
				cfg.WindowSize, cfg.MinSamples, err)
			if err == nil {
				e.Close(context.Background())
			}
		}
	}
	e, err := New(Config{WindowSize: 8, MinSamples: 8, Solver: solver})
	if err != nil {
		t.Fatalf("min samples equal to the window rejected: %v", err)
	}
	e.Close(context.Background())
}

func toStream(trace []sim.Sample) []Sample {
	out := make([]Sample, len(trace))
	for i, s := range trace {
		out[i] = FromSim(s)
	}
	return out
}

var _ = rf.DefaultBand // keep the import for wavelength-related helpers
