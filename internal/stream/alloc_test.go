package stream

import (
	"context"
	"testing"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/health"
)

// solutionAllocs is what one batch line estimate costs the heap: the
// Solution itself plus its Residuals, Weights and RefDistances.
const solutionAllocs = 4

// TestLine2DSolverAllocs pins the pooled batch solver: once its workspace is
// warm, a call allocates only the Solution it returns.
func TestLine2DSolverAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	trace, lambda := testTrace(t, 101)
	samples := toStream(trace[:256])
	positions := make([]geom.Vec3, len(samples))
	phases := make([]float64, len(samples))
	for i, s := range samples {
		positions[i], phases[i] = s.Pos, s.Phase
	}
	win, err := core.Preprocess(positions, phases, 9)
	if err != nil {
		t.Fatal(err)
	}
	solver := Line2DSolver(lambda, []float64{0.1}, true, core.DefaultSolveOptions())
	solve := func() {
		if _, err := solver(win, nil); err != nil {
			t.Fatal(err)
		}
	}
	solve() // warm the pooled workspace
	if allocs := testing.AllocsPerRun(100, solve); allocs > solutionAllocs {
		t.Errorf("warm Line2DSolver call allocates %.1f times, want ≤ %d (the returned Solution)", allocs, solutionAllocs)
	}
}

// TestBatchEngineSteadyStateAllocs runs the batch path the conveyor
// deployment runs — Line2DSolver, smoothing 9 — one accepted sample and its
// complete solve per step: dispatch, snapshot, preprocessing, solve,
// publication. Once warm, without a monitor nothing but the estimate's
// fresh Solution (the struct, its Residuals, Weights and RefDistances) may
// reach the heap. With a health Monitor and a drift calibration, as liond
// and pipebench run it, every solve is also traced on its snapshot's reused
// tracer, recorded in the flight ring and evaluated by every rule; that adds
// exactly one allocation, the flight record's own copy of the solve's
// events: not the tracer, not its event storage, not the alert scopes.
func TestBatchEngineSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	trace, lambda := testTrace(t, 7)
	for _, tc := range []struct {
		name    string
		monitor bool
		want    int
	}{
		{"bare", false, solutionAllocs},
		{"monitored", true, solutionAllocs + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				WindowSize: 256, MinSamples: 128, SolveEvery: 1, Smooth: 9, Workers: 1,
				Solver:  Line2DSolver(lambda, []float64{0.1}, true, core.DefaultSolveOptions()),
				Antenna: "A1",
			}
			if tc.monitor {
				mon, err := health.New(health.Config{Calibrations: []health.Calibration{{
					Antenna: "A1", Center: geom.V3(0, 0.8, 0), Lambda: lambda, Window: 256,
				}}})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Monitor = mon
			}
			e, err := New(cfg)
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
			if allocs := testing.AllocsPerRun(300, step); allocs > float64(tc.want) {
				t.Errorf("steady-state ingest+solve allocates %.1f times, want ≤ %d", allocs, tc.want)
			}
			if m := e.Metrics(); m.SolveErrors != 0 {
				t.Errorf("%d solves failed", m.SolveErrors)
			}
			if tc.monitor && len(cfg.Monitor.Flight("T1")) == 0 {
				t.Error("no flight records: the monitored path was not exercised")
			}
		})
	}
}
