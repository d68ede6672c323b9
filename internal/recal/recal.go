// Package recal closes the calibration loop the paper leaves open: the
// drift detector (internal/health) can already *see* the Achilles' heel —
// a drifting antenna phase offset/center silently corrupting every linear
// localization — and this package *acts* on it. A Controller subscribes to
// the monitor's alert transitions; when a calibration-drift alert fires it
// pulls the firing antenna's live window evidence from the stream engine,
// re-solves the phase center and the Eq. 17 phase offset with the shared
// internal/calib solver core, validates the candidate against held-out
// samples, and — only if the fit improves by a configurable margin —
// hot-swaps the antenna profile with no restart. The engine owns the
// active calibration: the controller reads it with Engine.ActiveProfile
// and changes it only with Engine.SwapProfile, which moves the monitor's
// drift reference in the same step. Every run is recorded in a bounded
// audit history; a swap enters probation until its alert resolves, with an
// automatic rollback to the previous profile if recalibration keeps
// failing while the old profile still fits the evidence better.
package recal

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/rfid-lion/lion/internal/calib"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/health"
	"github.com/rfid-lion/lion/internal/obs"
	"github.com/rfid-lion/lion/internal/stats"
	"github.com/rfid-lion/lion/internal/stream"
)

// ErrClosed is returned by Trigger after Close.
var ErrClosed = errors.New("recal: controller closed")

// Outcome classifies one recalibration run.
type Outcome string

const (
	// OutcomeSwapped: the candidate beat the active profile by the margin
	// and was hot-swapped in.
	OutcomeSwapped Outcome = "swapped"
	// OutcomeRejected: the candidate solved but did not improve the
	// held-out residual by the margin; the active profile is untouched.
	OutcomeRejected Outcome = "rejected"
	// OutcomeFailed: evidence was insufficient or the re-solve errored;
	// the active profile is untouched.
	OutcomeFailed Outcome = "failed"
	// OutcomeRolledBack: the previous profile was restored after the
	// post-swap profile kept drifting and could not be re-solved.
	OutcomeRolledBack Outcome = "rolled_back"
)

// Event is one audit-log entry: a recalibration run or a rollback.
type Event struct {
	// Seq numbers events from 1 in trigger order.
	Seq uint64 `json:"seq"`
	// Time is the wall-clock start of the run.
	Time time.Time `json:"time"`
	// Reason is what triggered the run: "alert:<rule>", "manual", or
	// "rollback" for the synthetic rollback entry.
	Reason  string  `json:"reason"`
	Antenna string  `json:"antenna"`
	Outcome Outcome `json:"outcome"`
	// Err carries the failure detail for OutcomeFailed.
	Err string `json:"err,omitempty"`

	// Tag is the evidence tag whose window fed the re-solve; Samples the
	// number of window samples (training + holdout).
	Tag     string `json:"tag,omitempty"`
	Samples int    `json:"samples"`
	// DriftLambda is the drift alert's value at trigger time (fraction of
	// λ), zero for manual runs.
	DriftLambda float64 `json:"drift_lambda,omitempty"`

	// Old*/New* document the profile change: the active calibration at
	// trigger time and the candidate (populated when a candidate solved).
	OldCenter geom.Vec3 `json:"old_center"`
	OldOffset float64   `json:"old_offset"`
	NewCenter geom.Vec3 `json:"new_center,omitempty"`
	NewOffset float64   `json:"new_offset,omitempty"`
	// OldRMS/NewRMS are the held-out offset-model residuals (radians) of
	// the active and candidate profiles over the same holdout samples.
	OldRMS float64 `json:"old_rms,omitempty"`
	NewRMS float64 `json:"new_rms,omitempty"`
	// ProfileVersion is the stream profile version installed by a swap or
	// rollback, zero otherwise.
	ProfileVersion uint64 `json:"profile_version,omitempty"`
}

// Config parameterises a Controller.
type Config struct {
	// Engine is the stream engine whose windows provide evidence and whose
	// profile is the active calibration the controller reads and swaps.
	// Required, with an active profile that names its antenna (the drift
	// alert scope the controller manages) and a positive wavelength. Its
	// monitor's drift alerts reach the controller through OnTransition.
	Engine *stream.Engine
	// Margin is the required relative improvement of the held-out residual
	// before a candidate is accepted: candRMS ≤ (1−Margin)·activeRMS.
	// Zero defaults to 0.05; it may be set negative-free only in [0, 1).
	Margin float64
	// MinSamples is the minimum evidence window length for a re-solve;
	// zero defaults to 64.
	MinSamples int
	// Intervals are the pairing intervals swept by the re-solve; nil
	// defaults to calib.DefaultIntervals.
	Intervals []float64
	// PositiveSide places the antenna on the positive side of the scan
	// line, as in the offline pipeline.
	PositiveSide bool
	// Registry receives the lion_recal_* metrics. Nil means a private
	// registry.
	Registry *obs.Registry
	// Logger, when non-nil, gets one structured line per run and swap.
	Logger *obs.Logger
}

// triggerRule is the alert rule whose firing triggers a recalibration.
const triggerRule = "calibration_drift"

func (c Config) margin() float64 {
	if c.Margin == 0 {
		return 0.05
	}
	return c.Margin
}

func (c Config) minSamples() int {
	if c.MinSamples <= 0 {
		return 64
	}
	return c.MinSamples
}

// auditHistory bounds the audit log.
const auditHistory = 32

// probation tracks a swap that has not yet proven itself: it clears when
// the drift alert resolves, and enables rollback while it lasts.
type probation struct {
	prev stream.Profile
}

// request is one coalesced trigger.
type request struct {
	reason string
	drift  float64
	tag    string // evidence tag hint from the alert
}

// Controller is the closed-loop recalibration worker. Wire it up with
// Monitor.SetOnTransition(ctrl.OnTransition); alert-triggered runs execute
// on the controller's own goroutine (coalesced — at most one queued), so
// the monitor's solve-path hook never blocks on a re-solve.
type Controller struct {
	cfg     Config
	antenna string  // the active profile's antenna at New
	lambda  float64 // the active profile's wavelength at New, metres

	// runMu serializes recalibration runs (worker loop vs manual Trigger).
	runMu sync.Mutex

	mu        sync.Mutex
	history   stats.Ring[Event] // oldest first; Total numbers the events
	probation *probation
	closed    bool

	trigCh chan request
	stopCh chan struct{}
	wg     sync.WaitGroup

	runs         map[Outcome]*obs.Counter
	solveSeconds *obs.Histogram
	logger       *obs.Logger
}

// solveBuckets size the re-solve latency histogram: an adaptive Eq. 17
// re-solve over one window is sub-millisecond to tens of milliseconds.
var solveBuckets = []float64{1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 1}

// New validates the configuration and starts the controller's worker.
func New(cfg Config) (*Controller, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("recal: an engine is required")
	}
	if cfg.Margin < 0 || cfg.Margin >= 1 {
		return nil, fmt.Errorf("recal: margin %v must be in [0, 1)", cfg.Margin)
	}
	active, _, ok := cfg.Engine.ActiveProfile()
	if !ok {
		return nil, fmt.Errorf("recal: engine has no active profile")
	}
	if active.Antenna == "" {
		return nil, fmt.Errorf("recal: the active profile names no antenna")
	}
	if !(active.Lambda > 0) {
		return nil, fmt.Errorf("recal: active profile wavelength %v must be positive", active.Lambda)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Controller{
		cfg:     cfg,
		antenna: active.Antenna,
		lambda:  active.Lambda,
		history: stats.NewRing[Event](auditHistory),
		trigCh:  make(chan request, 1),
		stopCh:  make(chan struct{}),
		runs:    make(map[Outcome]*obs.Counter, 4),
		solveSeconds: reg.Histogram("lion_recal_solve_seconds",
			"Wall time of one recalibration re-solve (evidence to verdict).", solveBuckets),
		logger: cfg.Logger,
	}
	runs := reg.CounterVec("lion_recal_runs_total",
		"Recalibration runs, by outcome.", "outcome")
	for _, o := range []Outcome{OutcomeSwapped, OutcomeRejected, OutcomeFailed, OutcomeRolledBack} {
		// metriclint:bounded outcomes are the four fixed Outcome constants
		c.runs[o] = runs.With(string(o))
	}
	reg.GaugeFunc("lion_recal_active_version",
		"Stream profile version installed by recalibration (0 = factory calibration).", func() float64 {
			_, v, _ := cfg.Engine.ActiveProfile()
			return float64(v)
		})
	c.wg.Add(1)
	go c.loop()
	return c, nil
}

// OnTransition is the health.Monitor alert hook: a firing drift alert for
// this controller's antenna queues a recalibration run (coalescing — a
// queued run always re-reads fresh evidence, so back-to-back transitions
// collapse into one run); a resolving one ends the post-swap probation.
func (c *Controller) OnTransition(a health.Alert) {
	if a.Rule != triggerRule || a.Scope != "antenna:"+c.antenna {
		return
	}
	switch a.State {
	case health.StateFiring:
		req := request{reason: "alert:" + a.Rule, drift: a.Value}
		if n := len(a.Evidence); n > 0 {
			req.tag = a.Evidence[n-1].Tag
		}
		select {
		case c.trigCh <- req:
		default: // a run is already queued; it will see the same evidence
		}
	case health.StateResolved:
		c.mu.Lock()
		c.probation = nil
		c.mu.Unlock()
		c.logger.Info("recal probation cleared", "antenna", c.antenna, "rule", a.Rule)
	}
}

// Trigger runs one recalibration synchronously (the manual path behind
// POST /v1/recal/trigger) and returns its audit event.
func (c *Controller) Trigger(reason string) (Event, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return Event{}, ErrClosed
	}
	if reason == "" {
		reason = "manual"
	}
	return c.run(request{reason: reason}), nil
}

// History returns the audit log, newest first.
func (c *Controller) History() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, c.history.Len())
	for i := range out {
		out[len(out)-1-i] = c.history.At(i)
	}
	return out
}

// OnProbation reports whether a swap is awaiting its alert resolution.
func (c *Controller) OnProbation() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.probation != nil
}

// Close stops the worker. Nil-safe and idempotent; concurrent Trigger
// calls finish.
func (c *Controller) Close() {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stopCh)
	c.wg.Wait()
}

func (c *Controller) loop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stopCh:
			return
		case req := <-c.trigCh:
			c.run(req)
		}
	}
}

// evidence selects the re-solve input: the hinted tag's live window when it
// is long enough, otherwise the longest window the engine holds. Raw
// phases — profile-independent, so candidate and active profile can be
// scored on the same measurements.
func (c *Controller) evidence(hint string) (tag string, samples []stream.Sample) {
	if hint != "" {
		if ws := c.cfg.Engine.WindowSamples(hint); len(ws) >= c.cfg.minSamples() {
			return hint, ws
		}
	}
	for _, t := range c.cfg.Engine.Tags() {
		if ws := c.cfg.Engine.WindowSamples(t); len(ws) > len(samples) {
			tag, samples = t, ws
		}
	}
	return tag, samples
}

// holdoutEvery is the evidence stride held out for validation: the re-solve
// never sees every fourth sample.
const holdoutEvery = 4

// split partitions evidence deterministically: every holdoutEvery-th sample
// is held out for validation, the rest train the re-solve.
func split(samples []stream.Sample) (trainPos []geom.Vec3, trainPh []float64, holdPos []geom.Vec3, holdPh []float64) {
	for i, s := range samples {
		if i%holdoutEvery == holdoutEvery-1 {
			holdPos = append(holdPos, s.Pos)
			holdPh = append(holdPh, s.Phase)
		} else {
			trainPos = append(trainPos, s.Pos)
			trainPh = append(trainPh, s.Phase)
		}
	}
	return
}

// run executes one recalibration: evidence → Eq. 17 re-solve → held-out
// validation → swap or reject, with a rollback check while on probation.
func (c *Controller) run(req request) Event {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	begin := time.Now()

	ev := Event{
		Time: begin, Reason: req.reason, Antenna: c.antenna,
		DriftLambda: req.drift,
	}
	active, _, _ := c.cfg.Engine.ActiveProfile()
	ev.OldCenter, ev.OldOffset = active.Center, active.Offset

	tag, samples := c.evidence(req.tag)
	ev.Tag, ev.Samples = tag, len(samples)
	if len(samples) < c.cfg.minSamples() {
		ev.Outcome = OutcomeFailed
		ev.Err = fmt.Sprintf("insufficient evidence: %d samples across live windows, need %d",
			len(samples), c.cfg.minSamples())
		c.record(ev)
		c.solveSeconds.Observe(time.Since(begin).Seconds())
		return ev
	}

	trainPos, trainPh, holdPos, holdPh := split(samples)
	activeRMS := calib.OffsetResidualRMS(holdPos, holdPh, active.Center, active.Offset, c.lambda)
	ev.OldRMS = activeRMS

	res, err := calib.EstimateLine(trainPos, trainPh, calib.Config{
		Lambda:       c.lambda,
		Intervals:    c.cfg.Intervals,
		PositiveSide: c.cfg.PositiveSide,
		Adaptive:     true,
	})
	if err != nil {
		ev.Outcome = OutcomeFailed
		ev.Err = err.Error()
		c.record(ev)
		c.maybeRollback(active, holdPos, holdPh, activeRMS, math.Inf(1))
		c.solveSeconds.Observe(time.Since(begin).Seconds())
		return ev
	}
	candRMS := calib.OffsetResidualRMS(holdPos, holdPh, res.Center, res.Offset, c.lambda)
	ev.NewCenter, ev.NewOffset, ev.NewRMS = res.Center, res.Offset, candRMS

	// Accept only a real improvement on samples the solve never saw. NaN
	// comparisons are false, so degenerate residuals reject safely.
	if candRMS <= (1-c.cfg.margin())*activeRMS {
		cand := active
		cand.Center, cand.Offset = res.Center, res.Offset
		version, swapErr := c.cfg.Engine.SwapProfile(cand)
		if swapErr != nil {
			ev.Outcome = OutcomeFailed
			ev.Err = swapErr.Error()
			c.record(ev)
			c.solveSeconds.Observe(time.Since(begin).Seconds())
			return ev
		}
		ev.Outcome = OutcomeSwapped
		ev.ProfileVersion = version
		c.mu.Lock()
		c.probation = &probation{prev: active}
		c.mu.Unlock()
		c.record(ev)
		c.logger.Info("recal profile swapped",
			"antenna", c.antenna, "tag", tag, "version", version,
			"old_offset", active.Offset, "new_offset", res.Offset,
			"old_rms", activeRMS, "new_rms", candRMS)
	} else {
		ev.Outcome = OutcomeRejected
		c.record(ev)
		c.logger.Info("recal candidate rejected",
			"antenna", c.antenna, "tag", tag,
			"active_rms", activeRMS, "candidate_rms", candRMS, "margin", c.cfg.margin())
		c.maybeRollback(active, holdPos, holdPh, activeRMS, candRMS)
	}
	c.solveSeconds.Observe(time.Since(begin).Seconds())
	return ev
}

// maybeRollback restores the pre-swap profile when a post-swap antenna
// keeps alerting but cannot be recalibrated (candidate failed or rejected)
// while the previous profile still fits the current evidence better than
// the active one by the margin — the escape hatch for a swap that made
// things worse.
func (c *Controller) maybeRollback(active stream.Profile, holdPos []geom.Vec3, holdPh []float64, activeRMS, candRMS float64) {
	c.mu.Lock()
	p := c.probation
	c.mu.Unlock()
	if p == nil || len(holdPos) == 0 {
		return
	}
	prevRMS := calib.OffsetResidualRMS(holdPos, holdPh, p.prev.Center, p.prev.Offset, c.lambda)
	if !(prevRMS <= (1-c.cfg.margin())*activeRMS && prevRMS < candRMS) {
		return
	}
	ev := Event{
		Time: time.Now(), Reason: "rollback", Antenna: c.antenna,
		OldCenter: active.Center, OldOffset: active.Offset, OldRMS: activeRMS,
		NewCenter: p.prev.Center, NewOffset: p.prev.Offset, NewRMS: prevRMS,
	}
	version, err := c.cfg.Engine.SwapProfile(p.prev)
	if err != nil {
		ev.Outcome = OutcomeFailed
		ev.Err = err.Error()
		c.record(ev)
		return
	}
	ev.Outcome = OutcomeRolledBack
	ev.ProfileVersion = version
	c.mu.Lock()
	c.probation = nil
	c.mu.Unlock()
	c.record(ev)
	c.logger.Warn("recal rolled back to previous profile",
		"antenna", c.antenna, "version", version,
		"active_rms", activeRMS, "previous_rms", prevRMS)
}

// record appends one event to the bounded audit history.
func (c *Controller) record(ev Event) {
	c.mu.Lock()
	ev.Seq = c.history.Total() + 1
	c.history.Push(ev)
	c.mu.Unlock()
	c.runs[ev.Outcome].Inc()
}
