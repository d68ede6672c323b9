package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/rfid-lion/lion/internal/dsp"
	"github.com/rfid-lion/lion/internal/geom"
)

// Errors returned by the localization pipeline.
var (
	// ErrTooFewObservations is returned when the input cannot produce
	// enough independent equations.
	ErrTooFewObservations = errors.New("core: too few observations")
	// ErrBadLambda is returned for non-positive wavelengths.
	ErrBadLambda = errors.New("core: wavelength must be positive")
	// ErrDegenerateGeometry is returned when the trajectory geometry cannot
	// determine the requested coordinates (e.g. a single straight line for
	// full 3-D localization, Sec. III-C).
	ErrDegenerateGeometry = errors.New("core: trajectory geometry is degenerate for the requested dimension")
	// ErrNoSolution is returned when the lower-dimension recovery has no
	// real solution (d_r smaller than the in-plane displacement).
	ErrNoSolution = errors.New("core: no real solution for the recovered coordinate")
	// ErrNonFiniteInput is returned when an observation carries a NaN or
	// infinite position or phase. Rejecting these at the solve boundary keeps
	// malformed network input (the liond ingest path) from poisoning a WLS
	// solve: one NaN anywhere in the system silently NaNs the whole estimate.
	ErrNonFiniteInput = errors.New("core: non-finite observation input")
)

// PosPhase is one calibrated measurement: the known tag position and the
// unwrapped phase observed there. All phases in one localization run must
// belong to a single continuous unwrapped profile so that phase differences
// translate to distance differences (Eq. 6).
type PosPhase struct {
	Pos   geom.Vec3
	Theta float64
}

// Preprocess converts raw wrapped phases into a continuous profile: it
// unwraps the modulo-2π jumps and optionally smooths with a centred
// moving-average window (Sec. IV-A). A window of zero or one disables
// smoothing; the window must be odd otherwise. Positions and phases must
// have equal length.
//
// It allocates fresh storage per call; PreprocessInto is the same code on
// reusable buffers.
func Preprocess(positions []geom.Vec3, wrapped []float64, smoothWindow int) ([]PosPhase, error) {
	var buf PreprocessBuffers
	return PreprocessInto(&buf, positions, wrapped, smoothWindow)
}

// PreprocessBuffers is the reusable storage of PreprocessInto: the output
// profile and the phase scratch. The zero value is ready to use; once a
// window has sized it, windows up to that length preprocess without
// allocating. Not safe for concurrent use.
type PreprocessBuffers struct {
	obs    []PosPhase
	theta  []float64 // unwrapped phases
	smooth []float64 // smoothed phases
}

// PreprocessInto is Preprocess writing into buf. The returned profile
// aliases buf and is valid until the next call with the same buf; positions
// and wrapped are not modified.
func PreprocessInto(buf *PreprocessBuffers, positions []geom.Vec3, wrapped []float64, smoothWindow int) ([]PosPhase, error) {
	if len(positions) != len(wrapped) {
		return nil, fmt.Errorf("core: %d positions vs %d phases: %w",
			len(positions), len(wrapped), ErrTooFewObservations)
	}
	for i, p := range positions {
		if !p.IsFinite() {
			return nil, fmt.Errorf("core: position %d is %v: %w", i, p, ErrNonFiniteInput)
		}
	}
	for i, th := range wrapped {
		if math.IsNaN(th) || math.IsInf(th, 0) {
			return nil, fmt.Errorf("core: phase %d is %v: %w", i, th, ErrNonFiniteInput)
		}
	}
	buf.theta = dsp.UnwrapInto(buf.theta, wrapped)
	theta := buf.theta
	if smoothWindow > 1 {
		sm, err := dsp.MovingAverageInto(buf.smooth, theta, smoothWindow)
		if err != nil {
			return nil, fmt.Errorf("smooth: %w", err)
		}
		buf.smooth, theta = sm, sm
	}
	if cap(buf.obs) < len(positions) {
		buf.obs = make([]PosPhase, len(positions))
	}
	buf.obs = buf.obs[:len(positions)]
	for i := range positions {
		buf.obs[i] = PosPhase{Pos: positions[i], Theta: theta[i]}
	}
	return buf.obs, nil
}

// Profile is a preprocessed measurement set ready for equation generation.
// Distance differences are taken relative to the sample at RefIndex
// (Eq. 6): Δd_t = λ/4π · (θ_t − θ_ref).
type Profile struct {
	Obs      []PosPhase
	Lambda   float64
	RefIndex int

	deltaD []float64 // cached Δd per observation
}

// NewProfile builds a profile over the observations with the middle sample
// as the reference position. At least two observations are required.
func NewProfile(obs []PosPhase, lambda float64) (*Profile, error) {
	return NewProfileRef(obs, lambda, len(obs)/2)
}

// NewProfileRef builds a profile with an explicit reference index.
func NewProfileRef(obs []PosPhase, lambda float64, refIndex int) (*Profile, error) {
	p := &Profile{Obs: append([]PosPhase(nil), obs...)}
	if err := p.reset(lambda, refIndex); err != nil {
		return nil, err
	}
	return p, nil
}

// reset validates the wavelength, the reference index and every observation
// of p.Obs as NewProfileRef documents, then refills Δd relative to refIndex,
// reusing p's storage.
func (p *Profile) reset(lambda float64, refIndex int) error {
	if lambda <= 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return ErrBadLambda
	}
	if len(p.Obs) < 2 {
		return ErrTooFewObservations
	}
	if refIndex < 0 || refIndex >= len(p.Obs) {
		return fmt.Errorf("core: reference index %d out of range [0,%d)",
			refIndex, len(p.Obs))
	}
	if err := checkFinite(p.Obs); err != nil {
		return err
	}
	p.Lambda, p.RefIndex = lambda, refIndex
	if cap(p.deltaD) < len(p.Obs) {
		p.deltaD = make([]float64, 0, len(p.Obs))
	}
	p.deltaD = appendDeltaD(p.deltaD[:0], p.Obs, p.Obs[refIndex].Theta, lambda)
	return nil
}

// Len returns the number of observations.
func (p *Profile) Len() int { return len(p.Obs) }

// RefPos returns the reference tag position used for Δd.
func (p *Profile) RefPos() geom.Vec3 { return p.Obs[p.RefIndex].Pos }

// DeltaDist returns Δd_i, the distance difference of observation i relative
// to the reference observation.
func (p *Profile) DeltaDist(i int) float64 { return p.deltaD[i] }
