package tracker

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/sim"
	"github.com/rfid-lion/lion/internal/traject"
)

func baseConfig(lambda float64) Config {
	return Config{
		Lambda:       lambda,
		AntennaPos:   geom.V3(0, 0.8, 0),
		TrackDir:     geom.V3(1, 0, 0),
		Speed:        0.1,
		WindowSize:   500,
		MinWindow:    200,
		Every:        25,
		PositiveSide: true,
	}
}

func TestConfigValidation(t *testing.T) {
	lambda := rf.DefaultBand().Wavelength()
	good := baseConfig(lambda)
	if _, err := New(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Lambda = 0 },
		func(c *Config) { c.Speed = 0 },
		func(c *Config) { c.TrackDir = geom.Vec3{} },
		func(c *Config) { c.WindowSize = 4 },
		func(c *Config) { c.MinWindow = 1000 },
		func(c *Config) { c.SmoothWindow = 8 },
		// Negative counts are not "unset": each is rejected, not defaulted
		// (a negative smoothing window would silently turn smoothing off).
		func(c *Config) { c.Every = -1 },
		func(c *Config) { c.MinWindow = -5 },
		func(c *Config) { c.SmoothWindow = -3 },
	}
	for i, mutate := range cases {
		c := good
		mutate(&c)
		if _, err := New(c); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

func TestTrackerFollowsMovingTag(t *testing.T) {
	env, err := sim.NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	reader, err := sim.NewReader(env, sim.ReaderConfig{RateHz: 100, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	ant := &sim.Antenna{ID: "A", PhysicalCenter: geom.V3(0, 0.8, 0)}
	tag := &sim.Tag{ID: "T", PhaseOffset: 0.7}
	start := geom.V3(-0.6, 0, 0)
	trj, err := traject.NewLinear(start, geom.V3(0.8, 0, 0), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := reader.Scan(ant, tag, trj)
	if err != nil {
		t.Fatal(err)
	}

	trk, err := New(baseConfig(env.Wavelength()))
	if err != nil {
		t.Fatal(err)
	}
	var estimates []*Estimate
	truthAt := map[time.Duration]geom.Vec3{}
	for _, s := range samples {
		est, err := trk.Push(s.Time, s.Phase)
		if errors.Is(err, ErrNotReady) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		estimates = append(estimates, est)
		truthAt[est.Time] = s.TagPos
	}
	if len(estimates) < 20 {
		t.Fatalf("only %d estimates", len(estimates))
	}
	// Skip the earliest estimates (short windows); the steady-state ones
	// must track within a few centimetres on average.
	var sum, worst float64
	rest := estimates[5:]
	for _, est := range rest {
		e := est.Position.Dist(truthAt[est.Time])
		sum += e
		if e > worst {
			worst = e
		}
	}
	if mean := sum / float64(len(rest)); mean > 0.025 {
		t.Errorf("mean steady-state tracking error %v m", mean)
	}
	if worst > 0.10 {
		t.Errorf("worst steady-state tracking error %v m", worst)
	}
}

func TestTrackerSurvivesWrapBoundaries(t *testing.T) {
	// The raw phases wrap dozens of times over a 1.4 m pass; unwrapping
	// each window afresh must keep every estimate consistent throughout.
	env, err := sim.NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	env.PhaseNoiseStd = 0
	reader, err := sim.NewReader(env, sim.ReaderConfig{RateHz: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ant := &sim.Antenna{PhysicalCenter: geom.V3(0, 0.8, 0)}
	trj, err := traject.NewLinear(geom.V3(-0.7, 0, 0), geom.V3(0.7, 0, 0), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := reader.Scan(ant, &sim.Tag{}, trj)
	if err != nil {
		t.Fatal(err)
	}
	trk, err := New(baseConfig(env.Wavelength()))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		est, err := trk.Push(s.Time, s.Phase)
		if errors.Is(err, ErrNotReady) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if d := est.Position.Dist(s.TagPos); d > 0.01 {
			t.Fatalf("noiseless tracking error %v m at %v", d, s.Time)
		}
	}
}

func TestTrackerReset(t *testing.T) {
	lambda := rf.DefaultBand().Wavelength()
	trk, err := New(baseConfig(lambda))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		_, _ = trk.Push(time.Duration(i)*10*time.Millisecond, rf.WrapPhase(float64(i)*0.05))
	}
	if trk.Len() == 0 {
		t.Fatal("window empty before reset")
	}
	trk.Reset()
	if trk.Len() != 0 {
		t.Errorf("window not cleared: %d", trk.Len())
	}
	if _, err := trk.Push(0, 1); !errors.Is(err, ErrNotReady) {
		t.Errorf("post-reset push err = %v", err)
	}
}

func TestTrackerWindowBound(t *testing.T) {
	lambda := rf.DefaultBand().Wavelength()
	cfg := baseConfig(lambda)
	cfg.WindowSize = 60
	cfg.MinWindow = 30
	cfg.Every = 1000000 // never estimate; we only check the buffer bound
	trk, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		_, _ = trk.Push(time.Duration(i)*10*time.Millisecond, 0.1)
	}
	if trk.Len() != 60 {
		t.Errorf("window length = %d, want 60", trk.Len())
	}
}

func TestUnwrapSanity(t *testing.T) {
	lambda := rf.DefaultBand().Wavelength()
	if !UnwrapSanity(lambda, 0.1, 100) {
		t.Error("paper conditions (10 cm/s at 100 Hz) reported unsafe")
	}
	if UnwrapSanity(lambda, 10, 100) {
		t.Error("10 m/s at 100 Hz reported safe")
	}
	if UnwrapSanity(lambda, 0.1, 0) {
		t.Error("zero read rate reported safe")
	}
	// The safety boundary is a quarter-wavelength displacement per read...
	// with margin: π/2 of round-trip phase is λ/8 of motion.
	limit := lambda / 8
	if !UnwrapSanity(lambda, limit*0.9*100, 100) {
		t.Error("just-below-limit speed reported unsafe")
	}
	if UnwrapSanity(lambda, limit*1.1*100, 100) {
		t.Error("just-above-limit speed reported safe")
	}
}

func TestTrackerEstimateResidualSignal(t *testing.T) {
	// Corrupted reads inside the window should surface as a larger
	// residual in the estimates — the live data-quality signal.
	env, err := sim.NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	env.PhaseNoiseStd = 0.05
	reader, err := sim.NewReader(env, sim.ReaderConfig{RateHz: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ant := &sim.Antenna{PhysicalCenter: geom.V3(0, 0.8, 0)}
	trj, err := traject.NewLinear(geom.V3(-0.7, 0, 0), geom.V3(0.7, 0, 0), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := reader.Scan(ant, &sim.Tag{}, trj)
	if err != nil {
		t.Fatal(err)
	}
	run := func(corrupt bool) float64 {
		trk, err := New(baseConfig(env.Wavelength()))
		if err != nil {
			t.Fatal(err)
		}
		var maxRes float64
		for i, s := range samples {
			phase := s.Phase
			if corrupt && i > 600 && i < 700 {
				phase = rf.WrapPhase(phase + 0.8)
			}
			est, err := trk.Push(s.Time, phase)
			if errors.Is(err, ErrNotReady) {
				continue
			}
			if err != nil {
				// A window too polluted to solve is itself the strongest
				// quality signal.
				if corrupt {
					return math.Inf(1)
				}
				t.Fatal(err)
			}
			if est.MeanAbsResidual > maxRes {
				maxRes = est.MeanAbsResidual
			}
		}
		return maxRes
	}
	clean := run(false)
	dirty := run(true)
	if dirty <= clean {
		t.Errorf("corruption did not raise residual: clean %v, dirty %v", clean, dirty)
	}
}

// TestTrackerEstimateAllocs pins the steady-state cost of an estimate: once
// the window is full, the Every pushes that produce one estimate allocate
// only the returned *Estimate — the unwrap, smoothing and solve run on the
// tracker's reused buffers.
func TestTrackerEstimateAllocs(t *testing.T) {
	lambda := rf.DefaultBand().Wavelength()
	cfg := baseConfig(lambda)
	cfg.WindowSize, cfg.MinWindow, cfg.Every = 400, 200, 10
	trk, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ant := cfg.AntennaPos
	i := 0
	push := func() (*Estimate, error) {
		pos := geom.V3(-0.5+0.001*float64(i), 0, 0)
		phase := rf.WrapPhase(rf.PhaseOfDistance(ant.Dist(pos), lambda))
		i++
		return trk.Push(time.Duration(i)*10*time.Millisecond, phase)
	}
	// Fill the window and size every buffer, stopping right after an estimate.
	for {
		if est, _ := push(); i >= 2*cfg.WindowSize && est != nil {
			break
		}
	}
	estimate := func() {
		for k := 0; k < cfg.Every; k++ {
			est, err := push()
			if (k == cfg.Every-1) != (err == nil && est != nil) {
				t.Fatalf("push %d: estimate %v err %v, want one estimate per %d pushes", i, est, err, cfg.Every)
			}
		}
	}
	if a := testing.AllocsPerRun(20, estimate); a > 1 {
		t.Errorf("one warm estimate allocates %v times, want at most 1 (the Estimate)", a)
	}
}

// TestTrackerRejectsNonFinitePhase: Push takes any float. A NaN or infinite
// read must be refused by the push that carries it, with
// core.ErrNonFiniteInput, and must not be stored: 150 reads later, while it
// would still sit in the 300-read window, the tracker estimates again.
func TestTrackerRejectsNonFinitePhase(t *testing.T) {
	lambda := rf.DefaultBand().Wavelength()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := baseConfig(lambda)
		cfg.WindowSize, cfg.MinWindow, cfg.Every = 300, 200, 1
		trk, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= 250; i++ {
			pos := geom.V3(-0.5+0.002*float64(i), 0, 0)
			phase := rf.WrapPhase(rf.PhaseOfDistance(cfg.AntennaPos.Dist(pos), lambda))
			if i == 100 {
				phase = bad
			}
			est, err := trk.Push(time.Duration(i)*20*time.Millisecond, phase)
			switch i {
			case 100:
				if !errors.Is(err, core.ErrNonFiniteInput) {
					t.Errorf("phase %v: push err = %v, want core.ErrNonFiniteInput", bad, err)
				}
			case 250:
				if err != nil || est == nil {
					t.Errorf("phase %v: push 150 reads later: est = %v, err = %v", bad, est, err)
				}
			}
		}
	}
}
