// Package tracker turns LION into a streaming estimator for the paper's
// motivating IIoT application: items riding a conveyor past a calibrated
// antenna. It consumes the reader's phase stream one read at a time into a
// sliding window and, every few reads, unwraps, smooths and re-solves the
// linear model over that window on reused buffers, yielding a fresh
// position estimate — light-weight enough for an edge node, exactly the
// deployment the paper targets.
package tracker

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/stats"
)

// Errors returned by the tracker.
var (
	ErrNotReady  = errors.New("tracker: not enough samples in the window yet")
	ErrBadConfig = errors.New("tracker: invalid configuration")
)

// Config describes the deployment the tracker runs in.
type Config struct {
	// Lambda is the carrier wavelength in metres.
	Lambda float64
	// AntennaPos is the calibrated phase center of the antenna in world
	// coordinates.
	AntennaPos geom.Vec3
	// TrackDir is the direction of belt travel (normalised internally).
	// The track is assumed straight and in a z = const plane.
	TrackDir geom.Vec3
	// Speed is the belt speed in m/s (from the conveyor encoder).
	Speed float64
	// WindowSize is the number of reads the sliding window holds; zero
	// defaults to 400 (≈4 s at 100 Hz).
	WindowSize int
	// MinWindow is the number of reads required before the first estimate;
	// zero defaults to WindowSize/2.
	MinWindow int
	// Every controls how often estimates are produced: one per Every
	// pushes. Zero defaults to 10.
	Every int
	// Intervals are the pairing separations; empty defaults to
	// {0.2, 0.4} metres.
	Intervals []float64
	// PositiveSide places the antenna on the +90°-rotated side of
	// TrackDir (see core.Locate2DLine).
	PositiveSide bool
	// SmoothWindow is the moving-average window; zero defaults to 9.
	SmoothWindow int
	// Solve configures the least-squares estimation; the zero value means
	// weighted least squares.
	Solve core.SolveOptions
}

func (c Config) withDefaults() (Config, error) {
	if c.Lambda <= 0 {
		return c, fmt.Errorf("%w: wavelength %v", ErrBadConfig, c.Lambda)
	}
	if c.Speed <= 0 {
		return c, fmt.Errorf("%w: speed %v", ErrBadConfig, c.Speed)
	}
	if c.TrackDir.Norm() == 0 {
		return c, fmt.Errorf("%w: zero track direction", ErrBadConfig)
	}
	if c.WindowSize == 0 {
		c.WindowSize = 400
	}
	if c.WindowSize < 8 {
		return c, fmt.Errorf("%w: window size %d", ErrBadConfig, c.WindowSize)
	}
	if c.MinWindow == 0 {
		c.MinWindow = c.WindowSize / 2
	}
	if c.MinWindow < 0 || c.MinWindow > c.WindowSize {
		return c, fmt.Errorf("%w: min window %d outside [1, %d]", ErrBadConfig, c.MinWindow, c.WindowSize)
	}
	if c.Every == 0 {
		c.Every = 10
	}
	if c.Every < 0 {
		return c, fmt.Errorf("%w: estimate every %d pushes", ErrBadConfig, c.Every)
	}
	if len(c.Intervals) == 0 {
		c.Intervals = []float64{0.2, 0.4}
	}
	if c.SmoothWindow == 0 {
		c.SmoothWindow = 9
	}
	if c.SmoothWindow < 0 || c.SmoothWindow%2 == 0 {
		return c, fmt.Errorf("%w: smoothing window %d must be positive and odd", ErrBadConfig, c.SmoothWindow)
	}
	if (c.Solve == core.SolveOptions{}) {
		c.Solve = core.DefaultSolveOptions()
	}
	return c, nil
}

// Estimate is one tracker output.
type Estimate struct {
	// Time is the read time of the sample that triggered the estimate.
	Time time.Duration
	// Position is the estimated tag position in world coordinates at Time.
	Position geom.Vec3
	// MeanAbsResidual carries the solve's residual magnitude — a live data
	// quality indicator.
	MeanAbsResidual float64
	// WindowReads is the number of reads the estimate used.
	WindowReads int
}

// Tracker is the streaming estimator. It is not safe for concurrent use.
type Tracker struct {
	cfg Config
	dir geom.Vec3

	reads stats.Ring[read]
	count int // pushes since last estimate

	// Per-estimate scratch, sized by the first full window and reused.
	pos       []geom.Vec3
	wrapped   []float64
	intervals []float64
	pre       core.PreprocessBuffers
	ws        core.LineWorkspace
	sol       core.Solution
}

// read is one raw reader observation.
type read struct {
	at    time.Duration
	phase float64 // wrapped, [0, 2π)
}

// New builds a tracker for the deployment.
func New(cfg Config) (*Tracker, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Tracker{cfg: c, dir: c.TrackDir.Unit(), reads: stats.NewRing[read](c.WindowSize)}, nil
}

// Push ingests one read (wrapped phase in [0, 2π)). It returns an Estimate
// every cfg.Every pushes once the window is primed, and ErrNotReady
// otherwise. A NaN or infinite phase is refused on arrival with an error
// wrapping core.ErrNonFiniteInput: it is not stored and does not count
// toward Every, so it cannot spoil the estimates of the window it would
// have joined.
func (t *Tracker) Push(at time.Duration, wrappedPhase float64) (*Estimate, error) {
	if math.IsNaN(wrappedPhase) || math.IsInf(wrappedPhase, 0) {
		return nil, fmt.Errorf("tracker: phase %v at %v: %w", wrappedPhase, at, core.ErrNonFiniteInput)
	}
	t.reads.Push(read{at: at, phase: wrappedPhase})
	t.count++
	if t.reads.Len() < t.cfg.MinWindow || t.count < t.cfg.Every {
		return nil, ErrNotReady
	}
	t.count = 0
	return t.estimate()
}

// estimate unwraps, smooths and solves the window. Positions are relative
// to the window's first read: o_i = speed·(t_i − t_0)·dir. Once warm it
// allocates only the returned Estimate.
func (t *Tracker) estimate() (*Estimate, error) {
	n := t.reads.Len()
	t0 := t.reads.At(0).at
	t.pos, t.wrapped = t.pos[:0], t.wrapped[:0]
	for i := 0; i < n; i++ {
		r := t.reads.At(i)
		t.pos = append(t.pos, t.dir.Scale(t.cfg.Speed*(r.at-t0).Seconds()))
		t.wrapped = append(t.wrapped, r.phase)
	}
	obs, err := core.PreprocessInto(&t.pre, t.pos, t.wrapped, t.cfg.SmoothWindow)
	if err != nil {
		return nil, fmt.Errorf("tracker preprocess: %w", err)
	}
	if err := core.Locate2DLineIntervalsInto(&t.ws, obs, t.cfg.Lambda,
		t.usableIntervals(obs), t.cfg.PositiveSide, t.cfg.Solve, &t.sol); err != nil {
		return nil, fmt.Errorf("tracker solve: %w", err)
	}
	// t.sol.Position is the antenna in the window-start frame; invert to
	// get the tag's window-start world position, then advance to "now".
	windowStart := t.cfg.AntennaPos.Sub(t.sol.Position)
	now := t.reads.At(n - 1).at
	pos := windowStart.Add(t.dir.Scale(t.cfg.Speed * (now - t0).Seconds()))
	return &Estimate{
		Time:            now,
		Position:        pos,
		MeanAbsResidual: t.sol.MeanAbsResidual,
		WindowReads:     n,
	}, nil
}

// usableIntervals keeps the configured pairing separations that fit inside
// the window's current spatial span, falling back to span-relative
// separations when the window is still short — right after priming, the tag
// has not travelled far enough for the configured intervals to pair.
func (t *Tracker) usableIntervals(obs []core.PosPhase) []float64 {
	span := obs[len(obs)-1].Pos.Dist(obs[0].Pos)
	// Span-relative separations are always included: they guarantee a
	// well-conditioned mix of pair geometries at every window size. A
	// configured interval equal to the span would pair only a handful of
	// nearly identical rows and leave the normal equations near-singular.
	t.intervals = append(t.intervals[:0], span/4, span/2)
	for _, iv := range t.cfg.Intervals {
		if iv < span*0.7 {
			t.intervals = append(t.intervals, iv)
		}
	}
	return t.intervals
}

// Reset clears the window, e.g. when a new item enters the read zone.
func (t *Tracker) Reset() {
	t.reads.Reset()
	t.count = 0
}

// Len returns the current window occupancy.
func (t *Tracker) Len() int { return t.reads.Len() }

// UnwrapSanity reports whether the stream's consecutive wrapped-phase steps
// stay safely below the unwrap limit for the given belt speed and read
// rate; callers can use it to validate a deployment (tag displacement per
// read must stay well under λ/4, Sec. IV-A-1).
func UnwrapSanity(lambda, speed, rateHz float64) bool {
	if rateHz <= 0 {
		return false
	}
	displacementPerRead := speed / rateHz
	return rf.PhaseOfDistance(displacementPerRead, lambda) < math.Pi/2
}
