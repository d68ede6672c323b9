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
	"github.com/rfid-lion/lion/internal/rf"
)

// profileTrace synthesizes n clean samples of a tag marching monotonically
// along x past an antenna at center (5 mm steps, so any 64-sample window
// spans 0.32 m — enough for the 0.2 m pairing interval), phases following
// Eq. 2 with a constant offset.
func profileTrace(center geom.Vec3, lambda, offset float64, n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		pos := geom.V3(-1.0+0.005*float64(i), 0, 0)
		out[i] = Sample{
			Time:  time.Duration(i) * 10 * time.Millisecond,
			Pos:   pos,
			Phase: rf.WrapPhase(rf.PhaseOfDistance(center.Dist(pos), lambda) + offset),
		}
	}
	return out
}

func lineEngine(t *testing.T, lambda float64, p *Profile) *Engine {
	t.Helper()
	e, err := New(Config{
		WindowSize: 64,
		MinSamples: 32,
		Solver:     Line2DSolver(lambda, []float64{0.2}, true, core.DefaultSolveOptions()),
		Antenna:    "A1",
		Profile:    p,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestProfileCorrectionPositionInvariant: a constant-offset profile applied
// uniformly must not move the position estimate — the pair-difference model
// cancels constant phase shifts. The corrected engine's estimate therefore
// has to land on the same center as an uncorrected engine fed offset-free
// phases.
func TestProfileCorrectionPositionInvariant(t *testing.T) {
	lambda := rf.DefaultBand().Wavelength()
	center := geom.V3(0.05, 0.8, 0)
	const offset = 2.7

	raw := lineEngine(t, lambda, nil)
	corrected := lineEngine(t, lambda, &Profile{Antenna: "A1", Offset: offset, Lambda: lambda})
	defer raw.Close(context.Background())
	defer corrected.Close(context.Background())

	clean := profileTrace(center, lambda, 0, 64)
	offsetted := profileTrace(center, lambda, offset, 64)
	for i := range clean {
		if err := raw.Ingest("T1", clean[i]); err != nil {
			t.Fatal(err)
		}
		if err := corrected.Ingest("T1", offsetted[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := raw.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := corrected.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	er, ok := raw.Latest("T1")
	if !ok || er.Err != nil {
		t.Fatalf("raw estimate: ok=%v err=%v", ok, er.Err)
	}
	ec, ok := corrected.Latest("T1")
	if !ok || ec.Err != nil {
		t.Fatalf("corrected estimate: ok=%v err=%v", ok, ec.Err)
	}
	if er.ProfileVersion != 0 {
		t.Errorf("raw engine ProfileVersion = %d, want 0", er.ProfileVersion)
	}
	if ec.ProfileVersion != 1 {
		t.Errorf("corrected engine ProfileVersion = %d, want 1", ec.ProfileVersion)
	}
	if d := er.Solution.Position.Dist(ec.Solution.Position); d > 1e-6 {
		t.Errorf("corrected estimate %.6v differs from raw %.6v by %v m",
			ec.Solution.Position, er.Solution.Position, d)
	}
	if d := ec.Solution.Position.Dist(center); d > 0.02 {
		t.Errorf("corrected estimate %v is %v m from truth %v", ec.Solution.Position, d, center)
	}
}

func TestSwapProfileVersioningAndValidation(t *testing.T) {
	lambda := rf.DefaultBand().Wavelength()
	e := lineEngine(t, lambda, nil)

	if _, _, ok := e.ActiveProfile(); ok {
		t.Error("fresh engine reports an active profile")
	}
	v, err := e.SwapProfile(Profile{Antenna: "A1", Offset: 1.0, Lambda: lambda})
	if err != nil || v != 1 {
		t.Fatalf("first swap: v=%d err=%v, want 1", v, err)
	}
	v, err = e.SwapProfile(Profile{Antenna: "A1", Offset: 2.0, Lambda: lambda})
	if err != nil || v != 2 {
		t.Fatalf("second swap: v=%d err=%v, want 2", v, err)
	}
	p, pv, ok := e.ActiveProfile()
	if !ok || pv != 2 || p.Offset != 2.0 {
		t.Fatalf("ActiveProfile = %+v v=%d ok=%v", p, pv, ok)
	}

	if _, err := e.SwapProfile(Profile{Antenna: "A9", Offset: 1}); err == nil {
		t.Error("antenna mismatch accepted")
	}
	if _, err := e.SwapProfile(Profile{Antenna: "A1", Offset: math.NaN()}); err == nil {
		t.Error("non-finite offset accepted")
	}

	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SwapProfile(Profile{Antenna: "A1", Offset: 3}); !errors.Is(err, ErrClosed) {
		t.Errorf("swap after close: err = %v, want ErrClosed", err)
	}
}

// TestSwapProfileMovesDriftReference: the engine's profile is the one
// active calibration. Every successful SwapProfile leaves the engine's
// ActiveProfile and its monitor's drift reference on the same center and
// offset, and a profile that either side refuses changes neither.
func TestSwapProfileMovesDriftReference(t *testing.T) {
	lambda := rf.DefaultBand().Wavelength()
	center := geom.V3(0.05, 0.8, 0)
	mon, err := health.New(health.Config{
		Calibrations: []health.Calibration{{Antenna: "A1", Center: center, Offset: 1, Lambda: lambda}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		WindowSize: 64,
		MinSamples: 32,
		Solver:     Line2DSolver(lambda, []float64{0.2}, true, core.DefaultSolveOptions()),
		Monitor:    mon,
		Antenna:    "A1",
		Profile:    &Profile{Antenna: "A1", Center: center, Offset: 1, Lambda: lambda},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close(context.Background())
	sameRecord := func(when string) Profile {
		t.Helper()
		p, _, _ := e.ActiveProfile()
		ds := mon.Drifts()
		if len(ds) != 1 || ds[0].Center != p.Center || ds[0].Calibrated != p.Offset {
			t.Fatalf("%s: active profile %+v, drift reference %+v", when, p, ds)
		}
		return p
	}
	sameRecord("at start")

	for i, p := range []Profile{
		{Antenna: "A1", Center: geom.V3(0.06, 0.79, 0), Offset: 2.5, Lambda: lambda},
		{Center: geom.V3(0.04, 0.81, 0.01), Offset: 0.3, Lambda: lambda},
	} {
		if _, err := e.SwapProfile(p); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		if got := sameRecord("after swap"); got != p {
			t.Fatalf("swap %d: active profile %+v, want %+v", i, got, p)
		}
	}

	before, version, _ := e.ActiveProfile()
	for _, p := range []Profile{
		{Antenna: "A1", Center: center, Offset: math.Inf(1), Lambda: lambda}, // the engine refuses
		{Antenna: "A9", Center: center, Offset: 1, Lambda: lambda},           // the engine refuses
		{Antenna: "A1", Center: center, Offset: 1, Lambda: 0},                // the monitor refuses
		{Antenna: "A1", Center: center, Offset: 1, Lambda: -lambda},          // the monitor refuses
	} {
		if _, err := e.SwapProfile(p); err == nil {
			t.Errorf("swap to %+v accepted", p)
		}
		after, v, _ := e.ActiveProfile()
		if after != before || v != version {
			t.Fatalf("refused swap %+v changed the profile to %+v v%d", p, after, v)
		}
		sameRecord("after a refused swap")
	}
}

func TestWindowSamplesRawCopy(t *testing.T) {
	lambda := rf.DefaultBand().Wavelength()
	e := lineEngine(t, lambda, &Profile{Antenna: "A1", Offset: 1.5, Lambda: lambda})
	defer e.Close(context.Background())

	trace := profileTrace(geom.V3(0, 0.8, 0), lambda, 1.5, 40)
	for _, s := range trace {
		if err := e.Ingest("T1", s); err != nil {
			t.Fatal(err)
		}
	}
	got := e.WindowSamples("T1")
	if len(got) != 40 {
		t.Fatalf("WindowSamples returned %d samples, want 40", len(got))
	}
	// Phases must be the raw ingested values, untouched by the profile.
	for i, s := range got {
		if s != trace[i] {
			t.Fatalf("sample %d = %+v, want raw %+v", i, s, trace[i])
		}
	}
	// Mutating the copy must not reach the engine.
	got[0].Phase = 99
	if again := e.WindowSamples("T1"); again[0].Phase == 99 {
		t.Error("WindowSamples aliases the session ring")
	}
	if e.WindowSamples("nope") != nil {
		t.Error("unknown tag returned samples")
	}
}

// TestProfileSwapBarrierRaceStress hammers the swap path while solves are in
// flight: several tags ingesting clean offsetted streams, one goroutine
// hot-swapping between two wildly different profiles. Either profile applied
// uniformly yields the true center (constant shifts cancel in the pair
// model); only a torn window — part corrected under the old offset, part
// under the new — can move an estimate. Every published estimate landing on
// the truth is therefore a direct proof of the swap consistency barrier,
// and the -race run proves the locking.
func TestProfileSwapBarrierRaceStress(t *testing.T) {
	lambda := rf.DefaultBand().Wavelength()
	center := geom.V3(0.05, 0.8, 0)
	const trueOffset = 2.0

	factory, err := IncrementalLine2DFactory(lambda, []float64{0.2}, true, core.DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		WindowSize:    64,
		MinSamples:    32,
		SolverFactory: factory,
		Antenna:       "A1",
		Profile:       &Profile{Antenna: "A1", Offset: 0.3, Lambda: lambda},
	})
	if err != nil {
		t.Fatal(err)
	}

	ests, cancel := e.Subscribe()
	defer cancel()
	var checked int
	var worst float64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for est := range ests {
			if est.Err != nil || est.Solution == nil {
				continue
			}
			checked++
			if d := est.Solution.Position.Dist(center); d > worst {
				worst = d
			}
		}
	}()

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		offsets := []float64{0.3, 5.1}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.SwapProfile(Profile{
				Antenna: "A1", Offset: offsets[i%len(offsets)], Lambda: lambda,
			}); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("swap: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	tags := []string{"T1", "T2", "T3", "T4"}
	var ingest sync.WaitGroup
	for _, tag := range tags {
		trace := profileTrace(center, lambda, trueOffset, 400)
		ingest.Add(1)
		go func(tag string, trace []Sample) {
			defer ingest.Done()
			for _, s := range trace {
				if err := e.Ingest(tag, s); err != nil {
					t.Errorf("ingest %s: %v", tag, err)
					return
				}
			}
		}(tag, trace)
	}
	ingest.Wait()
	close(stop)
	swapper.Wait()
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done

	if checked == 0 {
		t.Fatal("no successful estimates published")
	}
	// Clean synthetic data: a uniformly-corrected window solves to the
	// exact center; a torn window would be centimetres-to-metres off.
	if worst > 0.02 {
		t.Errorf("worst estimate error %v m across %d estimates — swap barrier torn a window", worst, checked)
	}
}
