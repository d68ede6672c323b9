package stream

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/health"
)

// incrConfig builds a factory-backed engine config whose sessions solve the
// line case on per-tag LineSessions, recording every solver the factory
// hands out so tests can inspect their counters.
func incrConfig(t testing.TB, lambda float64, record *[]*incrLineSolver, mu *sync.Mutex) Config {
	t.Helper()
	factory, err := IncrementalLine2DFactory(lambda, []float64{0.1}, true, core.DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		WindowSize: 256,
		MinSamples: 8,
		SolveEvery: 1,
		Workers:    1,
		SolverFactory: func() SessionSolver {
			s := factory()
			if record != nil {
				if mu != nil {
					mu.Lock()
				}
				*record = append(*record, s.(*incrLineSolver))
				if mu != nil {
					mu.Unlock()
				}
			}
			return s
		},
	}
}

// TestIncrementalEngineMatchesBatch feeds a seeded trace through a factory-
// backed engine one sample at a time and checks every published estimate is
// bit-identical to the offline batch pipeline over the identical window.
func TestIncrementalEngineMatchesBatch(t *testing.T) {
	trace, lambda := testTrace(t, 42)
	var solvers []*incrLineSolver
	e, err := New(incrConfig(t, lambda, &solvers, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close(context.Background())

	ctx := context.Background()
	var win []Sample
	compared := 0
	for i, s := range trace {
		sample := Sample{Time: s.Time, Pos: s.TagPos, Phase: s.Phase}
		if err := e.Ingest("T1", sample); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		win = append(win, sample)
		if len(win) > 256 {
			win = win[1:]
		}
		if len(win) < 8 || i%7 != 0 {
			continue // compare a spread of windows, not all 1200
		}
		if err := e.Flush(ctx); err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
		est, ok := e.Latest("T1")
		if !ok {
			t.Fatalf("no estimate after sample %d", i)
		}
		want, werr := offlineLineSolve(win, lambda)
		if werr != nil || est.Err != nil {
			if (werr == nil) != (est.Err == nil) {
				t.Fatalf("sample %d: streamed err = %v, offline err = %v", i, est.Err, werr)
			}
			continue
		}
		got := est.Solution
		if got.Position != want.Position ||
			math.Float64bits(got.RefDistance) != math.Float64bits(want.RefDistance) ||
			got.Iterations != want.Iterations ||
			math.Float64bits(got.FinalResidual) != math.Float64bits(want.FinalResidual) {
			t.Fatalf("sample %d: streamed %#v d_r %v (%d iterations, residual %v), offline %#v d_r %v (%d, %v)",
				i, got.Position, got.RefDistance, got.Iterations, got.FinalResidual,
				want.Position, want.RefDistance, want.Iterations, want.FinalResidual)
		}
		compared++
	}
	if compared < 100 {
		t.Fatalf("only %d windows compared", compared)
	}
	if len(solvers) != 1 {
		t.Fatalf("factory created %d solvers, want 1", len(solvers))
	}
}

// offlineLineSolve is the stateless reference pipeline for one raw window:
// exactly what Line2DSolver computes through SolveWindow with Smooth=0.
func offlineLineSolve(win []Sample, lambda float64) (*core.Solution, error) {
	positions := make([]geom.Vec3, len(win))
	phases := make([]float64, len(win))
	for i, s := range win {
		positions[i] = s.Pos
		phases[i] = s.Phase
	}
	obs, err := core.Preprocess(positions, phases, 0)
	if err != nil {
		return nil, err
	}
	return core.Locate2DLineIntervals(obs, lambda, []float64{0.1}, true, core.DefaultSolveOptions())
}

// TestIncrementalEngineSteadyStateZeroAllocs: one accepted sample plus its
// complete solve — dispatch, snapshot, unwrap, session locate, publication —
// must perform zero heap allocations once the session is warm.
func TestIncrementalEngineSteadyStateZeroAllocs(t *testing.T) {
	trace, lambda := testTrace(t, 7)
	if len(trace) < 900 {
		t.Fatalf("trace too short: %d", len(trace))
	}
	e, err := New(incrConfig(t, lambda, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close(context.Background())

	ctx := context.Background()
	next := 0
	step := func() {
		s := trace[next]
		next++
		if err := e.Ingest("T1", Sample{Time: s.Time, Pos: s.TagPos, Phase: s.Phase}); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for next < 400 { // warm: fill the window, size every buffer
		step()
	}
	allocs := testing.AllocsPerRun(300, step)
	if allocs != 0 {
		t.Errorf("steady-state ingest+solve allocates %.1f times per run, want 0", allocs)
	}
	if est, ok := e.Latest("T1"); !ok || est.Err != nil {
		t.Fatalf("no clean estimate after alloc run: %+v", est)
	}
}

// TestIncrementalEnginePublishedSolutionStable: a factory session publishes
// from per-tag engine-owned storage, so the Estimate a subscriber received
// must keep its values until the tag's next estimate even though the solver
// reuses its working Solution on every solve.
func TestIncrementalEnginePublishedSolutionStable(t *testing.T) {
	trace, lambda := testTrace(t, 13)
	e, err := New(incrConfig(t, lambda, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close(context.Background())
	ctx := context.Background()

	var prev *core.Solution
	var prevPos geom.Vec3
	var prevRes []float64
	for i := 0; i < 400; i++ {
		s := trace[i]
		if err := e.Ingest("T1", Sample{Time: s.Time, Pos: s.TagPos, Phase: s.Phase}); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		est, ok := e.Latest("T1")
		if !ok || est.Err != nil {
			continue
		}
		if prev != nil && prev == est.Solution {
			// Same backing struct by design: between the two estimates the
			// values must have been refreshed in place, not corrupted —
			// verified implicitly by TestIncrementalEngineMatchesBatch. Here
			// just confirm the previous snapshot values were intact at the
			// time of the previous read (copied below before this solve).
			_ = prevPos
		}
		if est.Solution != nil {
			prev = est.Solution
			prevPos = est.Solution.Position
			prevRes = append(prevRes[:0], est.Solution.Residuals...)
			if len(prevRes) == 0 {
				t.Fatal("estimate published without residuals")
			}
			if !est.Solution.Position.IsFinite() {
				t.Fatalf("solve %d: non-finite published position", i)
			}
		}
	}
	if prev == nil {
		t.Fatal("no successful estimates")
	}
}

// TestIncrementalLatestOwnsSolution: a factory session reuses its working
// Solution on every solve, but an estimate handed out by Latest or to a
// subscriber is the caller's. One estimate of each kind is held while the
// tag keeps solving and must keep its values, and under -race a goroutine
// reading Latest's Solution while the tag ingests must not race the engine.
func TestIncrementalLatestOwnsSolution(t *testing.T) {
	trace, lambda := testTrace(t, 7)
	e, err := New(incrConfig(t, lambda, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close(context.Background())
	sub, cancel := e.Subscribe()
	defer cancel()

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if est, ok := e.Latest("T1"); ok && est.Solution != nil {
				sum := est.Solution.Position.X
				for _, r := range est.Solution.Residuals {
					sum += r
				}
				_ = sum
			}
		}
	}()

	type held struct {
		sol *core.Solution
		pos geom.Vec3
		res []float64
	}
	hold := func(h *held, est Estimate) {
		if h.sol == nil && est.Err == nil && est.Solution != nil {
			*h = held{sol: est.Solution, pos: est.Solution.Position,
				res: append([]float64(nil), est.Solution.Residuals...)}
		}
	}
	var fromLatest, fromSub held
	ctx := context.Background()
	for i := 0; i < 600; i++ {
		s := trace[i]
		if err := e.Ingest("T1", Sample{Time: s.Time, Pos: s.TagPos, Phase: s.Phase}); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if est, ok := e.Latest("T1"); ok {
			hold(&fromLatest, est)
		}
		for drained := false; !drained; {
			select {
			case est := <-sub:
				hold(&fromSub, est)
			default:
				drained = true
			}
		}
	}
	close(stop)
	reader.Wait()

	for name, h := range map[string]held{"Latest": fromLatest, "subscriber": fromSub} {
		if h.sol == nil {
			t.Fatalf("%s: no clean estimate", name)
		}
		if h.sol.Position != h.pos {
			t.Errorf("%s: held position changed from %v to %v", name, h.pos, h.sol.Position)
		}
		if len(h.sol.Residuals) != len(h.res) {
			t.Fatalf("%s: held residuals resized from %d to %d", name, len(h.res), len(h.sol.Residuals))
		}
		for i, r := range h.res {
			if h.sol.Residuals[i] != r {
				t.Errorf("%s: held residual %d changed from %v to %v", name, i, r, h.sol.Residuals[i])
				break
			}
		}
	}
}

// TestIncrementalEngineConcurrentSessions is the -race satellite: many tags
// solving concurrently, each session reusing its own workspace, while
// dashboard-style pollers hammer the read APIs. Run with -race (make race /
// make check) this proves the per-session state needs no extra locking.
func TestIncrementalEngineConcurrentSessions(t *testing.T) {
	trace, lambda := testTrace(t, 99)
	var solvers []*incrLineSolver
	var smu sync.Mutex
	cfg := incrConfig(t, lambda, &solvers, &smu)
	cfg.Workers = 4
	// A monitor exercises the health hook under race too.
	mon, err := health.New(health.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Monitor = mon
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	tags := []string{"A", "B", "C", "D", "E", "F"}
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for p := 0; p < 3; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e.Metrics()
				for _, tag := range e.Tags() {
					e.Latest(tag)
					mon.Alerts()
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}

	var writers sync.WaitGroup
	for ti, tag := range tags {
		writers.Add(1)
		go func(tag string, off int) {
			defer writers.Done()
			for i := 0; i+off < len(trace) && i < 500; i++ {
				s := trace[i+off]
				if err := e.Ingest(tag, Sample{Time: s.Time, Pos: s.TagPos, Phase: s.Phase}); err != nil {
					t.Errorf("tag %s ingest %d: %v", tag, i, err)
					return
				}
				if i%25 == 24 {
					// Pace the stream so solves interleave with ingest: an
					// unthrottled burst coalesces every snapshot into two.
					time.Sleep(500 * time.Microsecond)
				}
			}
		}(tag, ti*50)
	}
	writers.Wait()
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	close(stop)
	pollers.Wait()

	if m := e.Metrics(); m.Solves == 0 || m.Tags != len(tags) {
		t.Fatalf("metrics after run: %+v", m)
	}
	smu.Lock()
	defer smu.Unlock()
	if len(solvers) != len(tags) {
		t.Fatalf("factory created %d solvers for %d tags", len(solvers), len(tags))
	}
}

// TestIncrementalFactoryValidation: factory parameter errors surface at
// construction, and Smooth with a factory is rejected by New.
func TestIncrementalFactoryValidation(t *testing.T) {
	if _, err := IncrementalLine2DFactory(0, []float64{0.1}, true, core.SolveOptions{}); err == nil {
		t.Error("zero lambda accepted")
	}
	if _, err := IncrementalLine2DFactory(0.3256, nil, true, core.SolveOptions{}); err == nil {
		t.Error("empty intervals accepted")
	}
	factory, err := IncrementalLine2DFactory(0.3256, []float64{0.1}, true, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{WindowSize: 16, Smooth: 9, SolverFactory: func() SessionSolver { return factory() }})
	if err == nil {
		t.Error("Smooth with SolverFactory accepted")
	}
	if _, err := New(Config{WindowSize: 16}); err == nil {
		t.Error("config without solver or factory accepted")
	}
}

// TestSolversRejectNonFiniteWindow: the engine's ingest rejects non-finite
// samples, but a SessionSolver or a SolveWindow caller may hand one straight
// to the solver. Both window paths scan once, inside the line solve, and
// must fail with core.ErrNonFiniteInput on a NaN position or phase, and on
// an infinite phase, which they unwrap before that scan.
func TestSolversRejectNonFiniteWindow(t *testing.T) {
	trace, lambda := testTrace(t, 3)
	clean := make([]Sample, 200)
	for i := range clean {
		clean[i] = FromSim(trace[i])
	}
	factory, err := IncrementalLine2DFactory(lambda, []float64{0.1}, true, core.DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	session := factory()
	solver := Line2DSolver(lambda, []float64{0.1}, true, core.DefaultSolveOptions())
	poison := map[string]func(*Sample){
		"NaN position": func(s *Sample) { s.Pos.Y = math.NaN() },
		"NaN phase":    func(s *Sample) { s.Phase = math.NaN() },
		"+Inf phase":   func(s *Sample) { s.Phase = math.Inf(1) },
	}
	for name, spoil := range poison {
		for _, at := range []int{0, len(clean) / 2, len(clean) - 1} {
			win := append([]Sample(nil), clean...)
			spoil(&win[at])
			if _, err := session.SolveWindow(win, nil); !errors.Is(err, core.ErrNonFiniteInput) {
				t.Errorf("%s at %d, SessionSolver: err = %v", name, at, err)
			}
			for _, smooth := range []int{0, 9} {
				if _, err := SolveWindow(win, smooth, solver, nil); !errors.Is(err, core.ErrNonFiniteInput) {
					t.Errorf("%s at %d, SolveWindow smooth %d: err = %v", name, at, smooth, err)
				}
			}
		}
	}
	if _, err := session.SolveWindow(clean, nil); err != nil {
		t.Errorf("clean window after rejected ones: %v", err)
	}
}
