// Package calib is the only code that turns a calibration scan into an
// antenna calibration: given (tag position, wrapped phase) measurements and,
// for the multi-line scans, each sample's line label, it estimates the
// antenna's phase center with the linear localization model (Sec. IV-B,
// with the adaptive range/interval selection of Sec. IV-C-1) and the
// combined tag+antenna phase offset Δθ via the paper's Eq. 17 circular
// mean. cmd/lioncal, lionsim -explain, the experiments and the online
// internal/recal controller all call it, which is why it lives below the
// command layer and speaks internal types only.
package calib

import (
	"errors"
	"fmt"
	"math"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/traject"
)

// ErrTooFewSamples is returned when a calibration solve has fewer samples
// than Config.MinSamples (or the absolute floor of 8).
var ErrTooFewSamples = errors.New("calib: too few samples for a calibration solve")

// The scan modes Estimate dispatches on.
const (
	// ModeLine is one straight pass (Sec. III-C-1): a 2-D center in the
	// plane of the line and the antenna.
	ModeLine = "line"
	// ModeTwoLine is two parallel lines in one plane (Fig. 14a): a 3-D
	// center whose out-of-plane coordinate comes from d_r.
	ModeTwoLine = "twoline"
	// ModeThreeLine is the Fig. 11 three-line scan (Eqs. 10–12).
	ModeThreeLine = "threeline"
	// ModePlanar is any non-linear trajectory confined to a plane
	// (Sec. III-C-2), solved over stride-n/4 pairs.
	ModePlanar = "planar"
)

// The adaptive parameter grid of Sec. IV-C-1: the pairing intervals x_o
// every adaptive solve sweeps (DefaultIntervals, also the joint intervals
// of a non-adaptive solve) and the scanning ranges the structured modes
// sweep with them.
var (
	DefaultIntervals = []float64{0.15, 0.2, 0.25}
	adaptiveRanges   = []float64{0.6, 0.8, 1.0}
)

// Config controls a calibration solve (Estimate).
type Config struct {
	// Lambda is the carrier wavelength in metres. Required.
	Lambda float64
	// Smooth is the centred moving-average window applied during
	// preprocessing (odd, 0 or 1 disables).
	Smooth int
	// Intervals are the pairing intervals x_o; nil selects
	// DefaultIntervals. A non-adaptive solve combines them in one system,
	// an adaptive one sweeps them.
	Intervals []float64
	// ScanRange bounds the scan extent a non-adaptive twoline or
	// threeline solve uses (0 = use everything). Adaptive solves sweep
	// the scanning range instead.
	ScanRange float64
	// PositiveSide places the antenna on the positive side of the scan
	// (the +90° half-plane of a line, above the plane of a planar scan).
	PositiveSide bool
	// Adaptive sweeps the parameter grid and fuses the candidates by the
	// paper's residual rule instead of solving one joint system. Planar
	// scans have no grid and ignore it.
	Adaptive bool
	// MinSamples is the minimum number of samples accepted; values below
	// 8 are raised to 8 (a line solve needs enough pairs to be
	// overdetermined).
	MinSamples int
	// Solve configures the least-squares core. A zero value selects
	// core.DefaultSolveOptions (IRWLS enabled).
	Solve core.SolveOptions
}

func (c Config) minSamples() int {
	if c.MinSamples < 8 {
		return 8
	}
	return c.MinSamples
}

func (c Config) intervals() []float64 {
	if len(c.Intervals) == 0 {
		return DefaultIntervals
	}
	return c.Intervals
}

func (c Config) solve() core.SolveOptions {
	if c.Solve == (core.SolveOptions{}) {
		return core.DefaultSolveOptions()
	}
	return c.Solve
}

// Result is one full antenna-calibration estimate.
type Result struct {
	// Center is the estimated phase center.
	Center geom.Vec3
	// Offset is the Eq. 17 phase offset Δθ = θ_T + θ_R in [0, 2π),
	// estimated against Center.
	Offset float64
	// Samples is the number of measurements the solve consumed.
	Samples int
	// RMS is the offset-model residual (OffsetResidualRMS) of the
	// estimate over its own input — the fit quality in radians.
	RMS float64
	// Adaptive is the Sec. IV-C-1 sweep behind Center, every candidate
	// with its solution or error; Center is its Position. Nil unless
	// Config.Adaptive selected a sweep (planar scans have none).
	Adaptive *core.AdaptiveResult
}

// EstimateLine is Estimate for a single-line scan (ModeLine), the
// calibration the recal controller re-solves from live windows.
func EstimateLine(positions []geom.Vec3, wrapped []float64, cfg Config) (Result, error) {
	return Estimate(ModeLine, positions, wrapped, nil, cfg)
}

// Estimate runs the full calibration pipeline on one scan: unwrap and
// smooth the raw wrapped phases, estimate the phase center with the linear
// model for the scan mode, then estimate the Eq. 17 phase offset against
// that center over the raw phases and report the resulting model-fit RMS.
// labels carries each sample's line (traject.LineL1/L2/L3); only the
// twoline and threeline modes read it, and they require one per sample.
func Estimate(mode string, positions []geom.Vec3, wrapped []float64, labels []int, cfg Config) (Result, error) {
	if !(cfg.Lambda > 0) {
		return Result{}, core.ErrBadLambda
	}
	if len(positions) != len(wrapped) {
		return Result{}, fmt.Errorf("calib: %d positions vs %d phases", len(positions), len(wrapped))
	}
	if len(positions) < cfg.minSamples() {
		return Result{}, fmt.Errorf("%w: have %d, need %d",
			ErrTooFewSamples, len(positions), cfg.minSamples())
	}
	obs, err := core.Preprocess(positions, wrapped, cfg.Smooth)
	if err != nil {
		return Result{}, err
	}
	center, adaptive, err := locate(mode, obs, labels, cfg)
	if err != nil {
		return Result{}, err
	}
	offset, err := core.PhaseOffset(positions, wrapped, center, cfg.Lambda)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Center:   center,
		Offset:   offset,
		Samples:  len(positions),
		RMS:      OffsetResidualRMS(positions, wrapped, center, offset, cfg.Lambda),
		Adaptive: adaptive,
	}, nil
}

// locate estimates the phase center of one preprocessed scan, with the
// adaptive sweep behind it when cfg.Adaptive selected one.
func locate(mode string, obs []core.PosPhase, labels []int, cfg Config) (geom.Vec3, *core.AdaptiveResult, error) {
	if (mode == ModeTwoLine || mode == ModeThreeLine) && len(labels) != len(obs) {
		return geom.Vec3{}, nil, fmt.Errorf("calib: %s scan has %d labels for %d samples", mode, len(labels), len(obs))
	}
	solve := cfg.solve()
	intervals := cfg.intervals()
	adaptive := core.StructuredOptions{Solve: solve}
	joint := core.StructuredOptions{ScanRange: cfg.ScanRange, Intervals: intervals, Solve: solve}
	switch mode {
	case ModeLine:
		if cfg.Adaptive {
			return fused(core.AdaptiveLocate2DLine(obs, cfg.Lambda, intervals, cfg.PositiveSide, solve))
		}
		return solved(core.Locate2DLineIntervals(obs, cfg.Lambda, intervals, cfg.PositiveSide, solve))
	case ModeTwoLine:
		l1, l2, _ := Lines(obs, labels)
		in := core.TwoLineInput{L1: l1, L2: l2, Lambda: cfg.Lambda}
		if cfg.Adaptive {
			return fused(core.AdaptiveLocateTwoLine(in, cfg.PositiveSide, adaptiveRanges, intervals, adaptive))
		}
		return solved(core.LocateTwoLine(in, cfg.PositiveSide, joint))
	case ModeThreeLine:
		l1, l2, l3 := Lines(obs, labels)
		in := core.ThreeLineInput{L1: l1, L2: l2, L3: l3, Lambda: cfg.Lambda}
		if cfg.Adaptive {
			return fused(core.AdaptiveLocateThreeLine(in, adaptiveRanges, intervals, adaptive))
		}
		return solved(core.LocateThreeLine(in, joint))
	case ModePlanar:
		pairs := core.StridePairs(len(obs), len(obs)/4)
		return solved(core.Locate3DPlanar(obs, cfg.Lambda, pairs, cfg.PositiveSide, solve))
	}
	return geom.Vec3{}, nil, fmt.Errorf("calib: unknown mode %q (want %s, %s, %s or %s)",
		mode, ModeLine, ModeTwoLine, ModeThreeLine, ModePlanar)
}

func fused(res *core.AdaptiveResult, err error) (geom.Vec3, *core.AdaptiveResult, error) {
	if err != nil {
		return geom.Vec3{}, nil, err
	}
	return res.Position, res, nil
}

func solved(sol *core.Solution, err error) (geom.Vec3, *core.AdaptiveResult, error) {
	if err != nil {
		return geom.Vec3{}, nil, err
	}
	return sol.Position, nil, nil
}

// Lines splits a labelled scan into its traject.LineL1, LineL2 and LineL3
// observations, in scan order; samples with any other label (the moves
// between lines) belong to none. The unwrapped profile stays continuous
// across the lines because the scan is one uninterrupted movement.
func Lines(obs []core.PosPhase, labels []int) (l1, l2, l3 []core.PosPhase) {
	for i, label := range labels {
		switch label {
		case traject.LineL1:
			l1 = append(l1, obs[i])
		case traject.LineL2:
			l2 = append(l2, obs[i])
		case traject.LineL3:
			l3 = append(l3, obs[i])
		}
	}
	return l1, l2, l3
}

// OffsetResidualRMS scores a calibration (center, offset) against raw
// wrapped measurements: the RMS of the wrapped signed residual
// measured − Δθ − 4π·d/λ per sample, in radians. It is the validation
// metric the recalibration loop uses on held-out windows — lower is a
// better fit, and it needs no unwrapping so it works on any sample subset.
// Returns NaN for empty input.
func OffsetResidualRMS(positions []geom.Vec3, wrapped []float64, center geom.Vec3, offset, lambda float64) float64 {
	if len(positions) == 0 || len(positions) != len(wrapped) || lambda <= 0 {
		return math.NaN()
	}
	var sum float64
	for i, pos := range positions {
		r := rf.WrapPhaseSigned(wrapped[i] - offset -
			rf.PhaseOfDistance(center.Dist(pos), lambda))
		sum += r * r
	}
	return math.Sqrt(sum / float64(len(positions)))
}
