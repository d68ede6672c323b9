package stream

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/rfid-lion/lion/internal/batch"
	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/health"
	"github.com/rfid-lion/lion/internal/obs"
	"github.com/rfid-lion/lion/internal/sim"
	"github.com/rfid-lion/lion/internal/stats"
)

// Errors returned by the stream engine.
var (
	// ErrClosed is returned by Ingest and Close once the engine has shut down.
	ErrClosed = errors.New("stream: engine closed")
	// ErrBadSample is returned for samples with non-finite position or phase.
	ErrBadSample = errors.New("stream: sample has non-finite fields")
	// ErrNoTag is returned for an empty tag id.
	ErrNoTag = errors.New("stream: tag id must be non-empty")
	// ErrBadConfig is returned by New for invalid configurations.
	ErrBadConfig = errors.New("stream: bad config")
)

// Sample is one timestamped read: the tag's known position and the wrapped
// phase the reader reported there. Samples of one tag must arrive in scan
// order — the window is an arrival-ordered phase profile, exactly like the
// offline trace the core solvers consume.
type Sample struct {
	Time  time.Duration
	Pos   geom.Vec3
	Phase float64
}

// FromSim converts one testbed read into a stream sample.
func FromSim(s sim.Sample) Sample {
	return Sample{Time: s.Time, Pos: s.TagPos, Phase: s.Phase}
}

// Solver turns one window of preprocessed observations into an estimate.
// Solvers must be pure functions of their input: the streamed-equals-offline
// guarantee relies on it. The window is engine storage, valid only for the
// call; a solver must not retain it, and the Solution it returns must not
// alias it. The tracer is nil unless the engine has a Monitor (whose flight
// recorder keeps the trace) or an offline caller passes one; solvers forward
// it into core.SolveOptions so per-iteration solver events reach the trace.
type Solver func(win []core.PosPhase, tr *obs.Tracer) (*core.Solution, error)

// SessionSolver is the stateful per-tag counterpart of Solver: it receives
// the raw sample window (preprocessing included in its contract) and may keep
// state — scratch workspaces, a reusable Solution — between calls. The engine guarantees a SessionSolver is never invoked
// concurrently with itself (solves for one tag are serialized by the
// coalescing dispatcher), so implementations need no internal locking.
//
// The returned Solution may alias solver-owned storage; the engine copies it
// into per-tag storage before the next solve can start.
type SessionSolver interface {
	SolveWindow(samples []Sample, tr *obs.Tracer) (*core.Solution, error)
}

// Config parameterises an Engine.
type Config struct {
	// WindowSize is the ring capacity per tag: the maximum number of samples
	// one solve sees. Required. A sample arriving at a full window evicts the
	// oldest one: the window always slides.
	WindowSize int
	// WindowSpan, when positive, additionally evicts samples older than this
	// relative to the newest sample's timestamp.
	WindowSpan time.Duration
	// MinSamples is the minimum window length before solves trigger.
	// Zero defaults to 4 (the smallest window core.Locate2DLine accepts).
	// It must not exceed WindowSize, or no window could ever solve.
	MinSamples int
	// SolveEvery triggers a solve after this many accepted samples since the
	// last snapshot. Zero defaults to 1 (solve on every sample).
	SolveEvery int
	// Smooth is the centred moving-average window passed to core.Preprocess;
	// zero or one disables smoothing, otherwise it must be odd.
	Smooth int
	// Workers sizes the solve pool; zero means runtime.GOMAXPROCS(0).
	Workers int
	// Solver produces estimates from window snapshots. Required unless
	// SolverFactory is set.
	Solver Solver
	// SolverFactory, when non-nil, supersedes Solver: every tag session gets
	// its own SessionSolver instance from the factory, so a solver can keep
	// per-tag scratch (see IncrementalLine2DFactory) and re-solve without
	// heap allocations. Factory solvers own their preprocessing, and the
	// session solvers here only unwrap, so Smooth must be zero with a
	// factory; smooth inside the solver if needed.
	//
	// Every estimate handed out owns its Solution: for a factory-backed
	// session the engine copies the solver's Solution once per Latest call
	// and once per publication while a subscriber exists, so ingest and
	// solve without a subscriber still allocate nothing.
	SolverFactory func() SessionSolver
	// Registry receives the engine's lion_stream_* metrics. Nil means a
	// private registry, still reachable through Engine.Registry().
	Registry *obs.Registry
	// Monitor, when non-nil, receives a health hook on every accepted
	// sample, every drop, and every completed window solve, and every
	// window solve is traced on its pooled snapshot's obs.Tracer, whose
	// events the monitor's flight recorder gets a copy of. Nil keeps the
	// solve path monitor-free at zero cost: one nil check, and solvers see
	// a nil tracer.
	Monitor *health.Monitor
	// Antenna labels this engine's samples for the monitor's per-antenna
	// drift detector. Single-reader deployments run one engine per antenna;
	// the id must match a health.Calibration to enable drift estimation.
	Antenna string
	// Profile, when non-nil, is the initial antenna calibration profile
	// (version 1): window solves see offset-corrected phases. It can be
	// hot-swapped later with Engine.SwapProfile, which moves the monitor's
	// drift reference with it. The monitor always receives raw phases.
	Profile *Profile
	// Spans, when non-nil, receives pipeline spans (queue wait, solve,
	// publish) for estimates whose triggering ingest carried a sampled
	// trace context (IngestTaggedTraced). Unsampled estimates never touch
	// the log, keeping the steady-state path allocation-free.
	Spans *obs.SpanLog
}

func (c Config) minSamples() int {
	if c.MinSamples == 0 {
		return 4
	}
	return c.MinSamples
}

func (c Config) solveEvery() int {
	if c.SolveEvery == 0 {
		return 1
	}
	return c.SolveEvery
}

// subBuffer is the per-subscriber channel depth. Slow subscribers lose
// estimates (counted), they never block solves.
const subBuffer = 64

// Estimate is one published localization result.
type Estimate struct {
	// Tag identifies the session.
	Tag string
	// Seq counts published estimates per tag, starting at 1.
	Seq uint64
	// Window is the number of samples the solve consumed.
	Window int
	// From and To are the timestamps of the window's first and last sample.
	From, To time.Duration
	// Aperture is the distance in metres between the window's first and last
	// sample positions: a short aperture constrains the radical-line solve
	// weakly, as the paper's range study shows.
	Aperture float64
	// Solution is the solver output; nil when Err is non-nil.
	Solution *core.Solution
	// Err is the solve error, if any.
	Err error
	// Latency is the wall time of the solve itself. It deliberately
	// excludes QueueWait — the two are separate SLO dimensions (solver
	// cost vs dispatch backlog) and are exported as separate histograms.
	Latency time.Duration
	// QueueWait is the wall time from the accept of the sample that
	// triggered this solve to the start of the solve (pool queueing plus
	// any coalescing delay).
	QueueWait time.Duration
	// ProfileVersion is the version of the antenna profile the whole
	// window was solved under — 0 when no profile was active. The swap
	// barrier guarantees a window is never split across versions.
	ProfileVersion uint64
}

// Metrics is a point-in-time snapshot of the engine's counters.
type Metrics struct {
	Tags            int
	Ingested        uint64
	Rejected        uint64 // non-finite samples refused at the boundary
	DroppedOverflow uint64 // samples evicted by a full window sliding
	DroppedAge      uint64 // samples evicted by WindowSpan
	Coalesced       uint64 // pending snapshots replaced before solving
	SubDropped      uint64 // estimates lost to slow subscribers
	Solves          uint64
	SolveErrors     uint64
	QueueDepth      int // solve jobs queued behind the workers
}

// Engine ingests per-tag sample streams and publishes estimates.
type Engine struct {
	cfg  Config
	pool *batch.Pool

	mu       sync.Mutex
	cond     *sync.Cond
	sessions map[string]*session
	subs     map[int]chan Estimate
	nextSub  int
	closed   bool
	snapFree []*snapshot // recycled window snapshots (guarded by mu)
	// hooks counts health hooks running after complete dropped mu; Flush
	// and Close wait for it to reach zero (guarded by mu).
	hooks int

	// profile is the active antenna calibration profile (guarded by mu);
	// profVersion counts swaps, 0 = never set. Snapshots pin the profile
	// under mu at dispatch, so a window solves under exactly one version.
	profile     Profile
	profVersion uint64
	profActive  bool

	reg             *obs.Registry
	ingested        *obs.Counter
	rejected        *obs.Counter
	dropped         *obs.CounterVec // reason: overflow | age | subscriber
	coalesced       *obs.Counter
	solves          *obs.Counter
	solveErrors     *obs.Counter
	latency         *obs.Histogram
	droppedOverflow *obs.Counter // cached dropped children, hot path
	droppedAge      *obs.Counter
	droppedSub      *obs.Counter
	profileSwaps    *obs.Counter
	queueWait       *obs.Histogram
	publishLatency  *obs.Histogram
	staleness       *obs.Histogram
}

// session is the per-tag state: the ring-buffered window plus dispatch
// book-keeping. All fields are guarded by the engine mutex, except solver,
// which is written once at session creation and thereafter touched only by
// the (serialized) solve jobs of this tag.
type session struct {
	tag    string
	win    stats.Ring[Sample]
	since  int // samples accepted since the last snapshot
	solver SessionSolver

	seq       uint64
	inFlight  bool
	pending   *snapshot
	latest    *Estimate
	latestBuf Estimate      // backing storage for latest (reused)
	pubSol    core.Solution // published copy of a factory solver's Solution

	// Pipeline-trace state of the most recent accepted sample, pinned into
	// the snapshot at dispatch. origin is the staleness zero point (router
	// receive wall clock, or local accept when standalone); accepted is the
	// local accept wall clock the queue-wait measurement starts from.
	tc       obs.TraceContext
	origin   time.Time
	accepted time.Time
}

// snapshot is one frozen window awaiting a solve. Snapshots are pooled on the
// engine free list: the sample buffer, the preprocessing buffers, the
// solve/done closures, the tracer and the solved carrier are built once per
// object and reused across dispatches, so a steady-state dispatch performs
// no heap allocations.
type snapshot struct {
	e       *Engine
	sess    *session
	tag     string
	samples []Sample
	buf     windowBuffers // preprocessing storage for Config.Solver solves
	tr      *obs.Tracer   // solve tracer, reset per solve; nil without a Monitor
	sv      solved
	run     func() (any, error)
	done    func(batch.Outcome)

	// Profile pinned under e.mu when the window was frozen — the swap
	// consistency barrier. The solve applies profOffset to its private
	// sample copy, so the whole window is corrected under one version.
	profOffset  float64
	profVersion uint64
	profActive  bool

	// Trace state pinned under e.mu when the window was frozen: the
	// estimate this snapshot produces is attributed to the trace (and
	// staleness origin) of the newest sample in the window.
	tc       obs.TraceContext
	origin   time.Time
	accepted time.Time
}

// solved carries a finished solve through the pool's Outcome.Value.
type solved struct {
	sol     *core.Solution
	err     error
	start   time.Time // solve start wall clock (queue-wait end)
	latency time.Duration
	trace   []obs.Event
}

// New validates the configuration and starts the solve pool.
func New(cfg Config) (*Engine, error) {
	if cfg.WindowSize <= 0 {
		return nil, fmt.Errorf("%w: window size %d must be positive", ErrBadConfig, cfg.WindowSize)
	}
	if cfg.Solver == nil && cfg.SolverFactory == nil {
		return nil, fmt.Errorf("%w: a solver is required", ErrBadConfig)
	}
	if cfg.SolverFactory != nil && cfg.Smooth > 1 {
		return nil, fmt.Errorf("%w: Smooth is incompatible with SolverFactory (session solvers own their preprocessing and only unwrap)", ErrBadConfig)
	}
	if cfg.Smooth > 1 && cfg.Smooth%2 == 0 {
		return nil, fmt.Errorf("%w: smoothing window %d must be odd", ErrBadConfig, cfg.Smooth)
	}
	for name, v := range map[string]int{
		"Smooth": cfg.Smooth, "SolveEvery": cfg.SolveEvery, "MinSamples": cfg.MinSamples, "Workers": cfg.Workers,
	} {
		if v < 0 {
			return nil, fmt.Errorf("%w: %s %d must not be negative", ErrBadConfig, name, v)
		}
	}
	if cfg.WindowSpan < 0 {
		return nil, fmt.Errorf("%w: window span %v must not be negative", ErrBadConfig, cfg.WindowSpan)
	}
	if cfg.minSamples() > cfg.WindowSize {
		return nil, fmt.Errorf("%w: min samples %d exceeds window size %d (no window could ever solve)",
			ErrBadConfig, cfg.minSamples(), cfg.WindowSize)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{
		cfg:      cfg,
		pool:     batch.NewPool(cfg.Workers, reg),
		sessions: make(map[string]*session),
		subs:     make(map[int]chan Estimate),

		reg:         reg,
		ingested:    reg.Counter("lion_stream_ingested_total", "Samples accepted into a window."),
		rejected:    reg.Counter("lion_stream_rejected_total", "Non-finite samples refused at the boundary."),
		dropped:     reg.CounterVec("lion_stream_dropped_total", "Samples or estimates lost, by reason.", "reason"),
		coalesced:   reg.Counter("lion_stream_coalesced_total", "Pending window snapshots replaced before solving."),
		solves:      reg.Counter("lion_stream_solves_total", "Window solves completed (including failures)."),
		solveErrors: reg.Counter("lion_stream_solve_errors_total", "Window solves that returned an error."),
		latency:     reg.Histogram("lion_stream_solve_latency_seconds", "Wall time of one window solve.", obs.DefBuckets),
		profileSwaps: reg.Counter("lion_stream_profile_swaps_total",
			"Antenna profile hot-swaps applied to the engine."),
		queueWait: reg.Histogram("lion_stream_queue_wait_seconds",
			"Wall time from sample accept to the start of the solve it triggered.", obs.DefBuckets),
		publishLatency: reg.Histogram("lion_stream_publish_latency_seconds",
			"Wall time from solve completion to estimate publication.", obs.DefBuckets),
		staleness: reg.Histogram("lion_stream_staleness_seconds",
			"Age of an estimate at publication, measured from its origin ingest wall clock (router receive when available).", obs.DefBuckets),
	}
	if cfg.Profile != nil {
		if err := cfg.Profile.validate(cfg.Antenna); err != nil {
			return nil, err
		}
		e.profile = *cfg.Profile
		e.profVersion = 1
		e.profActive = true
	}
	e.droppedOverflow = e.dropped.With("overflow")
	e.droppedAge = e.dropped.With("age")
	e.droppedSub = e.dropped.With("subscriber")
	reg.GaugeFunc("lion_stream_tags", "Tags with an active window session.", func() float64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return float64(len(e.sessions))
	})
	reg.GaugeFunc("lion_stream_solve_queue_depth", "Window solves queued behind the pool workers.", func() float64 {
		return float64(e.pool.Len())
	})
	reg.GaugeFunc("lion_stream_profile_version", "Version of the active antenna profile (0 = none).", func() float64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return float64(e.profVersion)
	})
	e.cond = sync.NewCond(&e.mu)
	return e, nil
}

// Registry returns the metrics registry backing the engine's counters —
// Config.Registry when one was supplied, otherwise the engine's private one.
func (e *Engine) Registry() *obs.Registry { return e.reg }

// SolveWindow runs the exact offline pipeline over one window: unwrap and
// smooth the phases with core.Preprocess, then apply the solver. The engine
// solves through the same code on its pooled snapshots' buffers, which is
// what makes a streamed window's estimate bit-identical to an offline solve
// of the same samples. A nil tracer is free; a non-nil one records the
// solver's spans and iteration events.
func SolveWindow(samples []Sample, smooth int, solver Solver, tr *obs.Tracer) (*core.Solution, error) {
	var buf windowBuffers
	return buf.solve(samples, smooth, solver, tr)
}

// windowBuffers is the preprocessing storage of one window solve. Each
// pooled snapshot owns one, so a steady-state batch solve preprocesses
// without allocating.
type windowBuffers struct {
	positions []geom.Vec3
	phases    []float64
	pre       core.PreprocessBuffers
}

// solve is SolveWindow on b's storage. The window handed to the solver
// aliases b and is valid only for the call.
func (b *windowBuffers) solve(samples []Sample, smooth int, solver Solver, tr *obs.Tracer) (*core.Solution, error) {
	if cap(b.positions) < len(samples) {
		b.positions = make([]geom.Vec3, 0, len(samples))
		b.phases = make([]float64, 0, len(samples))
	}
	b.positions = b.positions[:0]
	b.phases = b.phases[:0]
	for _, s := range samples {
		b.positions = append(b.positions, s.Pos)
		b.phases = append(b.phases, s.Phase)
	}
	win, err := core.PreprocessInto(&b.pre, b.positions, b.phases, smooth)
	if err != nil {
		return nil, err
	}
	return solver(win, tr)
}

// Ingest accepts one sample for the tag; a full window slides, so a valid
// sample is never refused. Safe for concurrent use.
func (e *Engine) Ingest(tag string, s Sample) error {
	if tag == "" {
		return ErrNoTag
	}
	if !s.Pos.IsFinite() || !finite(s.Phase) {
		e.rejected.Inc()
		return fmt.Errorf("%w: tag %q at t=%v", ErrBadSample, tag, s.Time)
	}
	now := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.ingestLocked(tag, s, obs.TraceContext{}, now, now)
	return nil
}

// Tagged couples a tag id with one sample for batched ingest.
type Tagged struct {
	Tag    string
	Sample Sample
}

// IngestTagged accepts a mixed-tag batch under a single lock acquisition —
// the ingest entry point for the HTTP daemons, where a decoded request body
// arrives as one slice and per-sample locking would dominate at cluster
// ingest rates. Semantics match per-sample Ingest: samples are applied in
// order; a non-finite sample or an empty tag drops that sample (counted)
// without poisoning the rest of the batch. The only error returned is
// ErrClosed, with accepted/dropped covering the samples processed before the
// engine closed.
func (e *Engine) IngestTagged(batch []Tagged) (accepted, dropped int, err error) {
	return e.IngestTaggedTraced(batch, obs.TraceContext{}, time.Time{})
}

// IngestTaggedTraced is IngestTagged carrying pipeline-trace context. tc is
// the trace decision made upstream (the sampling router, or a local sampler);
// origin is the staleness zero point — the wall clock at which the batch
// first entered the pipeline (the router's receive time for forwarded
// batches). A zero origin means the batch entered here: local accept time is
// used. Estimates triggered by this batch inherit tc and origin; when tc is
// sampled, Config.Spans receives their queue-wait/solve/publish spans and the
// staleness histogram gets an exemplar. An unsampled tc costs nothing beyond
// one clock read per batch.
func (e *Engine) IngestTaggedTraced(batch []Tagged, tc obs.TraceContext, origin time.Time) (accepted, dropped int, err error) {
	now := time.Now()
	if origin.IsZero() {
		origin = now
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ts := range batch {
		if e.closed {
			return accepted, dropped, ErrClosed
		}
		if ts.Tag == "" {
			dropped++
			continue
		}
		if !ts.Sample.Pos.IsFinite() || !finite(ts.Sample.Phase) {
			e.rejected.Inc()
			dropped++
			continue
		}
		e.ingestLocked(ts.Tag, ts.Sample, tc, origin, now)
		accepted++
	}
	return accepted, dropped, nil
}

// ingestLocked applies one validated sample to its session. The caller holds
// e.mu and has checked closed, tag, and finiteness. tc/origin/accepted are
// the pipeline-trace context and clocks of the enclosing batch.
func (e *Engine) ingestLocked(tag string, s Sample, tc obs.TraceContext, origin, accepted time.Time) {
	sess := e.sessions[tag]
	if sess == nil {
		sess = &session{tag: tag, win: stats.NewRing[Sample](e.cfg.WindowSize)}
		if e.cfg.SolverFactory != nil {
			sess.solver = e.cfg.SolverFactory()
		}
		e.sessions[tag] = sess
	}
	if span := e.cfg.WindowSpan; span > 0 {
		for sess.win.Len() > 0 && s.Time-sess.win.At(0).Time > span {
			sess.win.PopOldest()
			e.droppedAge.Inc()
			e.cfg.Monitor.ObserveDrop(s.Time)
		}
	}
	if sess.win.Len() == sess.win.Cap() {
		// The Push below evicts the oldest sample. That rotation is not
		// reported to the monitor: in steady state every full window rotates
		// on each sample, and the evicted sample has already contributed to
		// solves. Health drop accounting covers real losses only — age
		// evictions.
		e.droppedOverflow.Inc()
	}
	sess.win.Push(s)
	sess.since++
	sess.tc = tc
	sess.origin = origin
	sess.accepted = accepted
	e.ingested.Inc()
	e.cfg.Monitor.ObserveSample(e.cfg.Antenna, s.Time, s.Pos, s.Phase)
	if sess.win.Len() >= e.cfg.minSamples() && sess.since >= e.cfg.solveEvery() {
		e.dispatchLocked(sess)
	}
}

// Latest returns the most recent estimate for the tag, if any. The estimate
// is the caller's: a factory session's Solution is copied out of the engine's
// per-tag storage, which the tag's next publication overwrites.
func (e *Engine) Latest(tag string) (Estimate, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	sess := e.sessions[tag]
	if sess == nil || sess.latest == nil {
		return Estimate{}, false
	}
	est := *sess.latest
	if sess.solver != nil && est.Solution != nil {
		est.Solution = cloneSolution(est.Solution)
	}
	return est, true
}

// Tags returns the known tag ids, sorted.
func (e *Engine) Tags() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.sessions))
	for tag := range e.sessions {
		out = append(out, tag)
	}
	sort.Strings(out)
	return out
}

// Subscribe registers an estimate listener. The returned cancel function
// unregisters it and closes the channel; Close does the same for all
// remaining subscribers. Estimates that find a subscriber's buffer full are
// dropped for that subscriber (and counted), never blocking the solve path.
func (e *Engine) Subscribe() (<-chan Estimate, func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	id := e.nextSub
	e.nextSub++
	ch := make(chan Estimate, subBuffer)
	e.subs[id] = ch
	cancel := func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		if c, ok := e.subs[id]; ok {
			delete(e.subs, id)
			close(c)
		}
	}
	return ch, cancel
}

// Metrics returns a snapshot of the engine's counters. The same numbers are
// exported in Prometheus form through Registry(); this struct remains for
// in-process callers (drain logs, tests).
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	tags := len(e.sessions)
	e.mu.Unlock()
	return Metrics{
		Tags:            tags,
		Ingested:        e.ingested.Value(),
		Rejected:        e.rejected.Value(),
		DroppedOverflow: e.droppedOverflow.Value(),
		DroppedAge:      e.droppedAge.Value(),
		Coalesced:       e.coalesced.Value(),
		SubDropped:      e.droppedSub.Value(),
		Solves:          e.solves.Value(),
		SolveErrors:     e.solveErrors.Value(),
		QueueDepth:      e.pool.Len(),
	}
}

// Flush snapshots every window holding unsolved samples (of at least
// MinSamples), then waits until all queued and in-flight solves complete,
// their health hooks included, or ctx expires. A Monitor's OnTransition
// subscriber runs inside that hook and must not call Flush or Close.
func (e *Engine) Flush(ctx context.Context) error {
	e.mu.Lock()
	e.flushLocked()
	e.mu.Unlock()
	return e.wait(ctx)
}

// Close drains and shuts down: ingestion stops, every dirty window is given
// a final solve, in-flight solves complete, and subscriber channels close.
// Even when ctx expires before the drain finishes, the pool still runs its
// queue to completion before Close returns; the ctx error is reported.
func (e *Engine) Close(ctx context.Context) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.closed = true
	e.flushLocked()
	e.mu.Unlock()
	err := e.wait(ctx)
	e.pool.Close()
	e.mu.Lock()
	for id, ch := range e.subs {
		delete(e.subs, id)
		close(ch)
	}
	e.mu.Unlock()
	return err
}

// flushLocked dispatches a snapshot for every session with unsolved samples.
func (e *Engine) flushLocked() {
	for _, sess := range e.sessions {
		if sess.since > 0 && sess.win.Len() >= e.cfg.minSamples() {
			e.dispatchLocked(sess)
		}
	}
}

// getSnapLocked returns a snapshot loaded with the session's current window,
// reusing a pooled object (buffer, closures and all) when one is free.
func (e *Engine) getSnapLocked(sess *session) *snapshot {
	var snap *snapshot
	if n := len(e.snapFree); n > 0 {
		snap = e.snapFree[n-1]
		e.snapFree[n-1] = nil
		e.snapFree = e.snapFree[:n-1]
	} else {
		snap = &snapshot{e: e}
		snap.run = snap.solve
		snap.done = func(o batch.Outcome) { snap.e.complete(snap, o) }
		if e.cfg.Monitor != nil {
			snap.tr = obs.NewTracer()
		}
	}
	snap.sess = sess
	snap.tag = sess.tag
	snap.profOffset = e.profile.Offset
	snap.profVersion = e.profVersion
	snap.profActive = e.profActive
	snap.tc = sess.tc
	snap.origin = sess.origin
	snap.accepted = sess.accepted
	snap.samples = sess.win.AppendTo(snap.samples[:0])
	return snap
}

// putSnapLocked recycles a snapshot whose solve has fully completed (or that
// was coalesced away before solving).
func (e *Engine) putSnapLocked(snap *snapshot) {
	snap.sess = nil
	snap.sv = solved{}
	e.snapFree = append(e.snapFree, snap)
}

// dispatchLocked freezes the session's window and routes it to the pool,
// coalescing when a solve for this tag is already in flight.
func (e *Engine) dispatchLocked(sess *session) {
	snap := e.getSnapLocked(sess)
	sess.since = 0
	if sess.inFlight {
		if sess.pending != nil {
			e.coalesced.Inc()
			e.putSnapLocked(sess.pending)
		}
		sess.pending = snap
		return
	}
	sess.inFlight = true
	e.submitLocked(sess, snap)
}

// submitLocked hands one snapshot to the pool. The session must already be
// marked in flight.
func (e *Engine) submitLocked(sess *session, snap *snapshot) {
	err := e.pool.Submit(snap.run, snap.done)
	if err != nil {
		// Pool closed: only reachable through Close, which drains first, so
		// losing this snapshot cannot violate the drain guarantee.
		sess.inFlight = false
		if sess.pending != nil {
			e.putSnapLocked(sess.pending)
			sess.pending = nil
		}
		e.putSnapLocked(snap)
		e.cond.Broadcast()
	}
}

// solve runs the window solve in a pool worker. It writes into the
// snapshot-owned solved carrier and returns its address, so a steady-state
// solve boxes no new values; a monitored solve traces into the
// snapshot-owned tracer and hands the flight recorder an exact-size copy
// of its events.
func (snap *snapshot) solve() (any, error) {
	e := snap.e
	tr := snap.tr
	tr.Reset()
	snap.applyProfile()
	begin := time.Now()
	mark := tr.SpanAt("window_solve")
	var sol *core.Solution
	var serr error
	if s := snap.sess.solver; s != nil {
		sol, serr = s.SolveWindow(snap.samples, tr)
	} else {
		sol, serr = snap.buf.solve(snap.samples, e.cfg.Smooth, e.cfg.Solver, tr)
	}
	mark.End()
	snap.sv = solved{sol: sol, err: serr, start: begin, latency: time.Since(begin), trace: tr.Events()}
	return &snap.sv, nil
}

// complete publishes one finished solve and chains any pending snapshot.
func (e *Engine) complete(snap *snapshot, o batch.Outcome) {
	sess := snap.sess
	var sv solved
	if o.Err != nil {
		sv.err = o.Err
	} else if v, ok := o.Value.(*solved); ok {
		sv = *v
	}
	e.mu.Lock()
	sess.seq++
	est := Estimate{
		Tag:            snap.tag,
		Seq:            sess.seq,
		Window:         len(snap.samples),
		Solution:       sv.sol,
		Err:            sv.err,
		Latency:        sv.latency,
		ProfileVersion: snap.profVersion,
	}
	if !sv.start.IsZero() && !snap.accepted.IsZero() {
		if qw := sv.start.Sub(snap.accepted); qw > 0 {
			est.QueueWait = qw
		}
	}
	if n := len(snap.samples); n > 0 {
		first, last := snap.samples[0], snap.samples[n-1]
		est.From, est.To = first.Time, last.Time
		est.Aperture = first.Pos.Dist(last.Pos)
	}
	// A session solver reuses its Solution storage on the next solve, which
	// may start as soon as the pending snapshot is chained below. Latest
	// reads a per-tag copy (copied again under the lock on the way out), and
	// each subscriber publication gets its own copy.
	sess.latestBuf = est
	sess.latest = &sess.latestBuf
	if sess.solver != nil && sv.sol != nil {
		copySolution(&sess.pubSol, sv.sol)
		sess.latestBuf.Solution = &sess.pubSol
		if len(e.subs) > 0 {
			est.Solution = cloneSolution(sv.sol)
		}
	}
	e.solves.Inc()
	if sv.err != nil {
		e.solveErrors.Inc()
	}
	if sv.latency > 0 {
		e.latency.Observe(sv.latency.Seconds())
	}
	// SLO clocks: queue wait (accept → solve start), publish latency (solve
	// end → now), and staleness (origin → now). All three observe into
	// fixed-size histogram buckets; the exemplar and span writes engage only
	// for sampled traces, so the untraced path stays allocation-free.
	now := time.Now()
	if est.QueueWait > 0 {
		e.queueWait.Observe(est.QueueWait.Seconds())
	}
	var solveEnd time.Time
	if !sv.start.IsZero() {
		solveEnd = sv.start.Add(sv.latency)
		if pl := now.Sub(solveEnd); pl > 0 {
			e.publishLatency.Observe(pl.Seconds())
		}
	}
	if !snap.origin.IsZero() {
		stale := now.Sub(snap.origin)
		if stale < 0 {
			stale = 0
		}
		e.staleness.ObserveExemplar(stale.Seconds(), snap.tc)
	}
	if l := e.cfg.Spans; l != nil && snap.tc.Sampled {
		if est.QueueWait > 0 {
			l.Record(snap.tc, "queue_wait", snap.tag, snap.accepted, est.QueueWait)
		}
		if !sv.start.IsZero() {
			l.Record(snap.tc, "solve", snap.tag, sv.start, sv.latency)
			l.Record(snap.tc, "publish", snap.tag, solveEnd, now.Sub(solveEnd))
		}
	}
	for _, ch := range e.subs {
		select {
		case ch <- est:
		default:
			e.droppedSub.Inc()
		}
	}
	// The health hook runs after the unlock, by which time the next solve may
	// be rewriting a session solver's Solution: read what it needs now.
	m := e.cfg.Monitor
	var obsv health.SolveObservation
	if m != nil {
		e.hooks++
		obsv = health.SolveObservation{
			Tag:     est.Tag,
			Antenna: e.cfg.Antenna,
			Time:    est.To,
			Window:  est.Window,
			Seq:     est.Seq,
			Trace:   sv.trace,
		}
		if sv.err != nil {
			obsv.Failed = true
			obsv.Err = sv.err.Error()
		} else if sol := sv.sol; sol != nil {
			obsv.Condition = sol.ConditionEstimate
		}
	}
	e.putSnapLocked(snap) // everything needed from snap is copied into est
	if next := sess.pending; next != nil {
		sess.pending = nil
		e.submitLocked(sess, next)
	} else {
		sess.inFlight = false
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	if m == nil {
		return
	}
	// The health hook runs outside the engine mutex: a full rule pass (and
	// a possible evidence snapshot) must never serialise against ingest.
	// Counting it keeps Flush and Close from returning before it has
	// recorded this solve.
	m.ObserveSolve(obsv)
	e.mu.Lock()
	e.hooks--
	e.cond.Broadcast()
	e.mu.Unlock()
}

// wait blocks until no session has an in-flight or pending solve and no
// health hook is running, or ctx expires.
func (e *Engine) wait(ctx context.Context) error {
	var watcher chan struct{}
	if ctx != nil && ctx.Done() != nil {
		watcher = make(chan struct{})
		defer close(watcher)
		go func() {
			select {
			case <-ctx.Done():
				e.mu.Lock()
				e.cond.Broadcast()
				e.mu.Unlock()
			case <-watcher:
			}
		}()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for !e.quiescentLocked() {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		e.cond.Wait()
	}
	return nil
}

func (e *Engine) quiescentLocked() bool {
	if e.hooks > 0 {
		return false
	}
	for _, sess := range e.sessions {
		if sess.inFlight || sess.pending != nil {
			return false
		}
	}
	return true
}

// cloneSolution returns a deep copy of sol that shares no storage with it.
func cloneSolution(sol *core.Solution) *core.Solution {
	out := new(core.Solution)
	copySolution(out, sol)
	return out
}

// copySolution copies src into dst, reusing dst's slice backing so a
// steady-state publication from a session solver does not allocate.
func copySolution(dst, src *core.Solution) {
	res, w, rd := dst.Residuals, dst.Weights, dst.RefDistances
	*dst = *src
	dst.Residuals = append(res[:0], src.Residuals...)
	dst.Weights = append(w[:0], src.Weights...)
	dst.RefDistances = append(rd[:0], src.RefDistances...)
}

func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}
