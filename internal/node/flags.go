package node

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/health"
	"github.com/rfid-lion/lion/internal/obs"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/stream"
)

// config is one node's settings, parsed from liond's command line.
type config struct {
	log     *obs.Logger // nil discards
	addr    string
	drain   time.Duration
	cfg     stream.Config
	monitor bool
	health  health.Config

	// traceSample samples 1 in N locally-originated ingest batches for
	// end-to-end tracing (0 = off). Wire frames carrying a trace extension
	// from lionroute are always honoured regardless of this knob.
	traceSample int

	// Closed-loop recalibration (-recal): solver geometry the controller
	// re-solves with, plus its acceptance tuning. Its antenna and
	// wavelength come from the engine's active profile.
	recal        bool
	recalMargin  float64
	recalMin     int
	intervals    []float64
	positiveSide bool
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("liond", flag.ContinueOnError)
	var (
		addr   = fs.String("addr", ":8077", "listen address")
		lambda = fs.Float64("lambda", 0, "carrier wavelength, m (0 = paper's 920.625 MHz band)")
		solver = fs.String("solver", "line",
			"window solver: line (2-D lower-dimension), 2d, 3d")
		intervals = fs.String("intervals", "0.2",
			"comma-separated pairing intervals for the line solver, m")
		stride = fs.Int("stride", 0,
			"pairing stride for the 2d/3d solvers (0 = quarter window)")
		side = fs.Bool("positive-side", true,
			"line solver: target on the +90° side of the scan direction")
		window  = fs.Int("window", 256, "sliding window capacity, samples")
		span    = fs.Duration("span", 0, "sliding window time-span (0 = unbounded)")
		minS    = fs.Int("min", 8, "minimum window length before solving")
		every   = fs.Int("every", 16, "solve every N accepted samples")
		smooth  = fs.Int("smooth", 9, "phase smoothing window (odd, 0 = off)")
		workers = fs.Int("workers", 0, "solve pool size (0 = GOMAXPROCS)")
		drain   = fs.Duration("drain", 10*time.Second, "shutdown drain timeout")
		monitor = fs.Bool("monitor", true, "run the solve-health monitor (alerts, /v1/alerts)")
		antenna = fs.String("antenna", "A1",
			"antenna id this daemon ingests for (alert scope and drift gauge label)")
		calCenter = fs.String("cal-center", "",
			"calibrated antenna phase center as x,y,z metres (enables drift detection)")
		calOffset = fs.Float64("cal-offset", 0,
			"calibrated phase offset Δθ = θ_T + θ_R, radians")
		driftFrac = fs.Float64("drift-frac", 0.02,
			"drift alert threshold as a fraction of the wavelength")
		driftWindow = fs.Int("drift-window", 256,
			"sliding sample window of the drift re-estimate")
		holdDown = fs.Duration("hold-down", 2*time.Second,
			"drift must persist this long (stream time) before the alert fires")
		recalOn = fs.Bool("recal", false,
			"closed-loop recalibration: when the drift alert fires, re-solve the "+
				"antenna calibration from live windows and hot-swap the profile "+
				"(requires -cal-center and -monitor)")
		recalMargin = fs.Float64("recal-margin", 0.05,
			"accept a recalibration candidate only if it improves the held-out "+
				"residual by this fraction")
		recalMin = fs.Int("recal-min", 64,
			"minimum live-window samples a recalibration re-solve needs")
		traceSample = fs.Int("trace-sample", 0,
			"pipeline tracing: sample 1 in N local ingest batches (0 = off; "+
				"traced wire frames from lionroute are always honoured)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	lam := *lambda
	if !(lam >= 0) || math.IsInf(lam, 0) {
		return nil, fmt.Errorf("-lambda must be a finite wavelength >= 0, got %v", lam)
	}
	if lam == 0 {
		lam = rf.DefaultBand().Wavelength()
	}
	var ivs []float64
	for _, part := range strings.Split(*intervals, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("interval %q: %w", part, err)
		}
		ivs = append(ivs, v)
	}
	if *stride < 0 {
		return nil, fmt.Errorf("-stride must be >= 0, got %d", *stride)
	}
	sv, err := buildSolver(*solver, lam, ivs, *stride, *side)
	if err != nil {
		return nil, err
	}
	hcfg := health.Config{Rules: health.DefaultRules()}
	for i := range hcfg.Rules {
		if hcfg.Rules[i].Signal == health.SignalDrift {
			hcfg.Rules[i].Threshold = *driftFrac
			hcfg.Rules[i].HoldDown = *holdDown
		}
	}
	if *calCenter != "" {
		center, err := geom.ParseVec3(*calCenter)
		if err != nil {
			return nil, fmt.Errorf("cal-center: %w", err)
		}
		hcfg.Calibrations = []health.Calibration{{
			Antenna: *antenna,
			Center:  center,
			Offset:  *calOffset,
			Lambda:  lam,
			Window:  *driftWindow,
		}}
	}
	if *recalOn {
		if len(hcfg.Calibrations) == 0 {
			return nil, errors.New("-recal needs -cal-center (a calibration to recalibrate)")
		}
		if !*monitor {
			return nil, errors.New("-recal needs the monitor (-monitor=true) for drift alerts")
		}
	}
	if *traceSample < 0 {
		return nil, fmt.Errorf("-trace-sample must be >= 0, got %d", *traceSample)
	}
	return &config{
		addr:    *addr,
		drain:   *drain,
		monitor: *monitor,
		health:  hcfg,

		traceSample: *traceSample,

		recal:        *recalOn,
		recalMargin:  *recalMargin,
		recalMin:     *recalMin,
		intervals:    ivs,
		positiveSide: *side,
		cfg: stream.Config{
			WindowSize: *window,
			WindowSpan: *span,
			MinSamples: *minS,
			SolveEvery: *every,
			Smooth:     *smooth,
			Workers:    *workers,
			Solver:     sv,
			Antenna:    *antenna,
		},
	}, nil
}

func buildSolver(name string, lambda float64, intervals []float64, stride int, positiveSide bool) (stream.Solver, error) {
	opts := core.DefaultSolveOptions()
	switch name {
	case "line":
		if len(intervals) == 0 {
			return nil, errors.New("line solver needs at least one interval")
		}
		return stream.Line2DSolver(lambda, intervals, positiveSide, opts), nil
	case "2d":
		return stream.Free2DSolver(lambda, stride, opts), nil
	case "3d":
		return stream.Free3DSolver(lambda, stride, opts), nil
	default:
		return nil, fmt.Errorf("unknown solver %q (want line, 2d or 3d)", name)
	}
}
