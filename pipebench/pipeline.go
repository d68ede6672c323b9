package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/rfid-lion/lion/internal/calib"
	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/health"
	"github.com/rfid-lion/lion/internal/obs"
	"github.com/rfid-lion/lion/internal/sim"
	"github.com/rfid-lion/lion/internal/stream"
	"github.com/rfid-lion/lion/internal/traject"
	"github.com/rfid-lion/lion/internal/wire"
)

// barrierTimeout bounds the wait for one frame's estimates. A closed loop
// cannot tell a lost estimate from a slow one, so a frame that has not
// completed by then is counted as missing its remaining estimates.
const barrierTimeout = 10 * time.Second

// calSweep is the calibration scan the set-up solves (Eq. 17): a reference
// tag driven slowly along a 1.2 m line past the antenna.
type calSweep struct {
	positions []geom.Vec3
	phases    []float64
}

func newCalSweep(g *generator) (calSweep, error) {
	trj, err := traject.NewLinear(geom.V3(-0.6, 0, 0), geom.V3(0.6, 0, 0), 0.1)
	if err != nil {
		return calSweep{}, err
	}
	reader, err := sim.NewReader(g.env, sim.ReaderConfig{RateHz: rateHz, Seed: g.seed})
	if err != nil {
		return calSweep{}, err
	}
	raw, err := reader.Scan(g.ant, &sim.Tag{ID: "cal", PhaseOffset: tagPhase}, trj)
	if err != nil {
		return calSweep{}, err
	}
	return calSweep{positions: sim.Positions(raw), phases: sim.Phases(raw)}, nil
}

// pipeline is one set-up of the program under test: the calibrated engine
// and monitor plus the benchmark's subscription.
type pipeline struct {
	w      workload
	cal    calib.Result
	eng    *stream.Engine
	sub    <-chan stream.Estimate
	cancel func()
	hists  []string // lion_stream_*_seconds histograms, the SLO read set

	tr *tracer // nil in untraced runs

	// Reused per-frame buffers.
	decoded []dataset.TaggedSample
	batch   []stream.Tagged
	got     []bool // per expected estimate of the frame: received
	timer   *time.Timer
}

// calibrate runs the set-up's Eq. 17 antenna calibration.
func calibrate(sweep calSweep, lambda float64) (calib.Result, error) {
	return calib.EstimateLine(sweep.positions, sweep.phases, calib.Config{
		Lambda: lambda, Smooth: 9, PositiveSide: true,
	})
}

// newPipeline builds the engine and monitor the way liond does: the
// calibration becomes both the monitor's drift reference and the engine's
// initial antenna profile.
func newPipeline(w workload, lambda float64, cal calib.Result, tr *tracer) (*pipeline, error) {
	reg := obs.NewRegistry()
	mon, err := health.New(health.Config{
		Rules: health.DefaultRules(),
		Calibrations: []health.Calibration{{
			Antenna: antennaID, Center: cal.Center, Offset: cal.Offset, Lambda: lambda, Window: 256,
		}},
		Registry: reg,
	})
	if err != nil {
		return nil, err
	}
	sv, factory, err := w.solver(lambda)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		sv, factory = tr.wrap(sv, factory)
	}
	eng, err := stream.New(stream.Config{
		WindowSize:    w.window,
		MinSamples:    w.minSamples,
		SolveEvery:    w.solveEvery,
		Smooth:        w.smooth,
		Solver:        sv,
		SolverFactory: factory,
		Registry:      reg,
		Monitor:       mon,
		Antenna:       antennaID,
		Profile:       &stream.Profile{Antenna: antennaID, Center: cal.Center, Offset: cal.Offset, Lambda: lambda},
	})
	if err != nil {
		return nil, err
	}
	sub, cancel := eng.Subscribe()
	p := &pipeline{w: w, cal: cal, eng: eng, sub: sub, cancel: cancel, tr: tr, timer: time.NewTimer(barrierTimeout)}
	for _, name := range reg.Names() {
		if strings.HasPrefix(name, "lion_stream_") && strings.HasSuffix(name, "_seconds") {
			if _, ok := reg.FindHistogram(name); ok {
				p.hists = append(p.hists, name)
			}
		}
	}
	if len(p.hists) == 0 {
		p.close()
		return nil, errors.New("engine registers no lion_stream_*_seconds histograms")
	}
	return p, nil
}

func (p *pipeline) close() {
	p.cancel()
	p.eng.Close(context.Background())
	p.timer.Stop()
}

// frameResult is what one closed-loop frame produced.
type frameResult struct {
	latency  time.Duration // decode start → last estimate received
	accepted int
	missing  int
	extra    int
	failed   int   // estimates carrying a solve error
	firstErr error // the first of them
	errs     []float64
	gated    []gated
}

// gated is one published estimate kept for the offline re-solve.
type gated struct {
	e   expect
	pos geom.Vec3
}

// run sends one frame and waits until every estimate it triggers has been
// published. With wantErrs it records the position error (cm) of every
// estimate.
func (p *pipeline) run(f *frame, res *frameResult, wantErrs bool) error {
	*res = frameResult{errs: res.errs[:0], gated: res.gated[:0]}
	var tt frameTrace
	t0 := time.Now()
	decoded, _, err := wire.DecodeFrame(f.bytes, p.decoded[:0])
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	p.decoded = decoded
	if p.tr != nil {
		tt.decodeEnd = time.Now()
	}
	if cap(p.batch) < len(decoded) {
		p.batch = make([]stream.Tagged, len(decoded))
	}
	batch := p.batch[:len(decoded)]
	for i, ts := range decoded {
		batch[i] = stream.Tagged{Tag: ts.Tag, Sample: stream.FromSim(ts.Sample())}
	}
	if p.tr != nil {
		tt.ingestStart = time.Now()
	}
	acc, _, err := p.eng.IngestTagged(batch)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	if p.tr != nil {
		tt.ingestEnd = time.Now()
	}
	res.accepted = acc
	pending := len(f.expects)
	if cap(p.got) < pending {
		p.got = make([]bool, pending)
	}
	got := p.got[:pending]
	clear(got)
	p.timer.Reset(barrierTimeout)
	var last time.Time
	var lastSpan *solveSpan
	var lastQW time.Duration
	for pending > 0 {
		var est stream.Estimate
		select {
		case est = <-p.sub:
		case <-p.timer.C:
			res.missing = pending
			return nil
		}
		now := time.Now()
		i := matchExpect(f.expects, est)
		if i < 0 || got[i] {
			res.extra++
			continue
		}
		got[i] = true
		pending--
		last = now
		if est.Err != nil || est.Solution == nil {
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("tag %s estimate %d (window %d): %v", est.Tag, est.Seq, est.Window, est.Err)
			}
			res.failed++
		} else {
			if wantErrs {
				res.errs = append(res.errs, 100*est.Solution.Position.Dist(truth()))
			}
			if f.expects[i].gate {
				res.gated = append(res.gated, gated{e: f.expects[i], pos: est.Solution.Position})
			}
		}
		if p.tr != nil {
			lastSpan, lastQW = nil, est.QueueWait
			if sp, ok := p.tr.estimate(&f.expects[i], est); ok {
				lastSpan = &sp
			}
		}
	}
	if !p.timer.Stop() {
		<-p.timer.C
	}
	if last.IsZero() {
		last = time.Now()
	}
	res.latency = last.Sub(t0)
	if p.tr != nil {
		tt.start, tt.end = t0, last
		p.tr.frame(tt, f.samples, lastSpan, lastQW)
	}
	return nil
}

// matchExpect finds the expected estimate est answers: same tag and
// sequence number, window length and window end.
func matchExpect(exp []expect, est stream.Estimate) int {
	for i := range exp {
		e := &exp[i]
		if e.seq == est.Seq && e.tag == est.Tag {
			if e.window != est.Window || e.to != est.To {
				return -1
			}
			return i
		}
	}
	return -1
}

// read performs the workload's read mix after a frame and returns its
// latency. Conveyor workloads read the latest estimate of every tag in the
// frame; the portal reads every stream SLO histogram the way /v1/slo does,
// plus the latest estimate of every tag that finished its pass since the
// previous read.
func (p *pipeline) read(tags []string) time.Duration {
	t0 := time.Now()
	if p.w.sloEvery > 0 {
		p.sloRead()
	}
	for _, tag := range tags {
		if p.tr != nil {
			b := time.Now()
			p.eng.Latest(tag)
			p.tr.latest = append(p.tr.latest, float64(time.Since(b).Nanoseconds()))
		} else {
			p.eng.Latest(tag)
		}
	}
	return time.Since(t0)
}

// sloRead reads p50/p95/p99 and the count of every stream latency histogram,
// as liond's /v1/slo handler does.
func (p *pipeline) sloRead() {
	var b time.Time
	if p.tr != nil {
		b = time.Now()
	}
	for _, name := range p.hists {
		h, ok := p.eng.Registry().FindHistogram(name)
		if !ok {
			continue
		}
		if h.Count() == 0 {
			continue
		}
		for _, q := range [...]float64{50, 95, 99} {
			h.Quantile(q)
		}
	}
	if p.tr != nil {
		p.tr.slo = append(p.tr.slo, float64(time.Since(b).Nanoseconds())/1e3)
	}
}

// frameTrace holds the layer boundaries of one frame in a traced run.
type frameTrace struct {
	start, decodeEnd, ingestStart, ingestEnd, end time.Time
}

// solveSpan is one wrapped solver call.
type solveSpan struct{ start, end time.Time }

// tracer records per-layer timings in traced runs. The solver wrappers run
// on pool workers; every other method runs on the feeding goroutine.
type tracer struct {
	mu     sync.Mutex
	spans  map[geom.Vec3]solveSpan // keyed by the window's last position
	solver []rebuildStats          // session solvers, in creation order

	decodeNs, ingestNs float64
	samples            int
	solveUs            []float64
	solveTotal         time.Duration
	queueUs            []float64
	publishUs          []float64
	unattributedUs     []float64
	latest             []float64 // ns per Latest call
	slo                []float64 // µs per SLO read
	unmatched          int
}

// rebuildStats is the slice of core.LineSession's counters the rebuild
// ratio needs.
type rebuildStats interface {
	Stats() core.LineSessionStats
}

func newTracer() *tracer { return &tracer{spans: make(map[geom.Vec3]solveSpan)} }

// reset drops the timings recorded so far (the set-up's), keeping the
// solver registry. No solve is in flight between closed-loop frames.
func (t *tracer) reset() {
	*t = tracer{spans: t.spans, solver: t.solver}
}

// rebuilds sums the rebuild and solve counters of every session solver.
func (t *tracer) rebuilds() (rebuilds, solves int) {
	if t == nil {
		return 0, 0
	}
	for _, s := range t.solver {
		st := s.Stats()
		rebuilds += st.Rebuilds
		solves += st.Solves
	}
	return rebuilds, solves
}

func (t *tracer) record(key geom.Vec3, start time.Time) {
	end := time.Now()
	t.mu.Lock()
	t.spans[key] = solveSpan{start, end}
	t.mu.Unlock()
}

// wrap times every solver call.
func (t *tracer) wrap(sv stream.Solver, factory func() stream.SessionSolver) (stream.Solver, func() stream.SessionSolver) {
	if factory != nil {
		return nil, func() stream.SessionSolver {
			inner := factory()
			if rs, ok := inner.(rebuildStats); ok {
				t.solver = append(t.solver, rs)
			}
			return &timedSession{inner: inner, t: t}
		}
	}
	return func(win []core.PosPhase, otr *obs.Tracer) (*core.Solution, error) {
		start := time.Now()
		sol, err := sv(win, otr)
		if len(win) > 0 {
			t.record(win[len(win)-1].Pos, start)
		}
		return sol, err
	}, nil
}

type timedSession struct {
	inner stream.SessionSolver
	t     *tracer
}

func (s *timedSession) SolveWindow(samples []stream.Sample, otr *obs.Tracer) (*core.Solution, error) {
	start := time.Now()
	sol, err := s.inner.SolveWindow(samples, otr)
	if len(samples) > 0 {
		s.t.record(samples[len(samples)-1].Pos, start)
	}
	return sol, err
}

// estimate attributes one received estimate to the solve that produced it.
func (t *tracer) estimate(e *expect, est stream.Estimate) (solveSpan, bool) {
	t.queueUs = append(t.queueUs, micros(est.QueueWait))
	t.mu.Lock()
	sp, ok := t.spans[e.pos]
	delete(t.spans, e.pos)
	t.mu.Unlock()
	if !ok {
		t.unmatched++
		return sp, false
	}
	d := sp.end.Sub(sp.start)
	t.solveUs = append(t.solveUs, micros(d))
	t.solveTotal += d
	return sp, true
}

// frame closes the books on one traced frame: layer totals and the part of
// the frame no layer covers. After ingest returns, the blocking path is the
// last estimate's queue wait (which starts at accept, the start of
// IngestTagged), its solve and its publication; the gaps between them —
// window snapshot, profile correction, preprocessing — are unattributed.
func (t *tracer) frame(tt frameTrace, samples int, last *solveSpan, lastQW time.Duration) {
	t.samples += samples
	decode := tt.decodeEnd.Sub(tt.start)
	ingest := tt.ingestEnd.Sub(tt.ingestStart)
	t.decodeNs += float64(decode.Nanoseconds())
	t.ingestNs += float64(ingest.Nanoseconds())
	covered := decode + ingest
	if last != nil {
		// Publication of the frame's last estimate: from its solver's
		// return to its receipt, which ends the frame.
		t.publishUs = append(t.publishUs, micros(tt.end.Sub(last.end)))
		covered += overlap(tt.ingestEnd, tt.end, tt.ingestStart, tt.ingestStart.Add(lastQW)) +
			overlap(tt.ingestEnd, tt.end, last.start, tt.end)
	}
	t.unattributedUs = append(t.unattributedUs, micros(tt.end.Sub(tt.start)-covered))
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// overlap returns the length of [a0, a1] ∩ [b0, b1].
func overlap(a0, a1, b0, b1 time.Time) time.Duration {
	if b0.Before(a0) {
		b0 = a0
	}
	if b1.After(a1) {
		b1 = a1
	}
	if d := b1.Sub(b0); d > 0 {
		return d
	}
	return 0
}
