package health

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/obs"
	"github.com/rfid-lion/lion/internal/stats"
)

// Config parameterises a Monitor.
type Config struct {
	// Rules is the declarative rule set; nil means DefaultRules(). Rule
	// names must be unique.
	Rules []Rule
	// Calibrations enables the drift detector for the listed antennas.
	// Samples reported for antennas not listed here are counted for drop
	// accounting but take no part in drift estimation.
	Calibrations []Calibration
	// Registry receives the monitor's lion_health_* metrics. Nil means a
	// private registry.
	Registry *obs.Registry
	// Logger, when non-nil, gets one structured line per alert transition.
	Logger *obs.Logger
	// OnTransition, when non-nil, is invoked with a copy of the alert each
	// time it enters a new state (pending, firing, resolved; a pending
	// alert that heals is dropped silently). Callbacks run on the observing
	// goroutine after the monitor's lock is released, in transition order —
	// they may call back into the monitor but must not block for long, as
	// they hold up the solve pipeline's observation hook. A callback must
	// not call Flush or Close on the stream engine feeding this monitor:
	// both wait for the running hook, so the call would deadlock. This is
	// the subscription point for closed-loop consumers such as the
	// recalibration controller, whose callback only does a non-blocking send.
	OnTransition func(Alert)
}

// Fixed monitor sizing. The bounds keep memory flat regardless of tag
// cardinality or uptime.
const (
	rateAlpha       = 0.2 // EWMA weight of the global error- and drop-rate signals
	resolvedHistory = 32  // recently-resolved alerts kept for /v1/alerts
)

// rate is an EWMA of a [0, 1] indicator stream.
type rate struct {
	alpha float64
	v     float64
	seen  bool
}

func (r *rate) add(x float64) {
	if !r.seen {
		r.v, r.seen = x, true
		return
	}
	r.v += r.alpha * (x - r.v)
}

// evalBuckets size the evaluation-latency histogram: a full rule pass is
// microseconds, far below solve latency.
var evalBuckets = []float64{1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 1e-3, 1e-2}

// Monitor consumes the pipeline's solve and ingest signals and maintains
// rates, drift estimates and alerts. The nil Monitor is the disabled state:
// every method is a nil-check no-op.
type Monitor struct {
	mu  sync.Mutex
	cfg Config

	rules  []Rule
	drift  map[string]*driftEstimator
	order  []string // calibration antenna ids, registration order
	active map[alertKey]*alertState
	// resolved holds recently resolved alerts, oldest first.
	resolved stats.Ring[Alert]

	errRate                   rate
	dropRate                  rate
	accepted, dropped         uint64
	lastAccepted, lastDropped uint64

	// now is the logical clock: the high-water mark of observed stream
	// timestamps. Alert hold-down and resolve hysteresis are measured on
	// it, which keeps transitions deterministic under accelerated replay.
	now time.Duration

	// hookQueue collects state-entry alert copies during a locked
	// evaluation pass; ObserveSolve drains it to cfg.OnTransition after
	// unlocking so callbacks never run under the monitor mutex.
	hookQueue []Alert

	reg           *obs.Registry
	evalSeconds   *obs.Histogram
	observed      *obs.Counter
	transPending  *obs.Counter
	transFiring   *obs.Counter
	transResolved *obs.Counter
	transCanceled *obs.Counter
	firingGauges  map[string]*obs.Gauge // per rule name
	driftGauges   map[string]*obs.Gauge // per antenna id
}

// New validates the configuration and returns a ready monitor.
func New(cfg Config) (*Monitor, error) {
	rules := cfg.Rules
	if rules == nil {
		rules = DefaultRules()
	}
	seen := map[string]bool{}
	for _, r := range rules {
		if err := r.validate(); err != nil {
			return nil, err
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("health: duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Monitor{
		cfg:      cfg,
		rules:    rules,
		drift:    make(map[string]*driftEstimator),
		active:   make(map[alertKey]*alertState),
		resolved: stats.NewRing[Alert](resolvedHistory),
		errRate:  rate{alpha: rateAlpha},
		dropRate: rate{alpha: rateAlpha},

		reg: reg,
		evalSeconds: reg.Histogram("lion_health_eval_seconds",
			"Wall time of one health rule evaluation pass.", evalBuckets),
		observed: reg.Counter("lion_health_solves_observed_total",
			"Window solves fed into the health monitor."),
		firingGauges: make(map[string]*obs.Gauge),
		driftGauges:  make(map[string]*obs.Gauge),
	}
	trans := reg.CounterVec("lion_health_alert_transitions_total",
		"Alert state transitions, by entered state (cancelled = pending healed).", "state")
	m.transPending = trans.With("pending")
	m.transFiring = trans.With("firing")
	m.transResolved = trans.With("resolved")
	m.transCanceled = trans.With("cancelled")
	firing := reg.GaugeVec("lion_health_alerts_firing",
		"Alerts currently firing, by rule.", "rule")
	for _, r := range rules {
		// metriclint:bounded rule names come from the validated static rule set
		m.firingGauges[r.Name] = firing.With(r.Name)
	}
	driftGauge := reg.GaugeVec("lion_health_drift_lambda",
		"Signed phase-offset drift per antenna, as a fraction of the wavelength.", "antenna")
	seenAnt := map[string]bool{}
	for _, cal := range cfg.Calibrations {
		if err := cal.validate(); err != nil {
			return nil, err
		}
		if seenAnt[cal.Antenna] {
			return nil, fmt.Errorf("health: duplicate calibration for antenna %q", cal.Antenna)
		}
		seenAnt[cal.Antenna] = true
		m.drift[cal.Antenna] = newDriftEstimator(cal)
		m.order = append(m.order, cal.Antenna)
		// metriclint:bounded antenna ids come from the configured calibration set
		m.driftGauges[cal.Antenna] = driftGauge.With(cal.Antenna)
	}
	reg.GaugeFunc("lion_health_alerts_active", "Active (pending or firing) alerts.", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(len(m.active))
	})
	return m, nil
}

// Registry returns the metrics registry backing the monitor's metrics.
func (m *Monitor) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// Rules returns a copy of the monitor's rule set.
func (m *Monitor) Rules() []Rule {
	if m == nil {
		return nil
	}
	out := make([]Rule, len(m.rules))
	copy(out, m.rules)
	return out
}

// advanceLocked moves the logical clock forward, never backward.
func (m *Monitor) advanceLocked(t time.Duration) {
	if t > m.now {
		m.now = t
	}
}

// ObserveSample records one accepted ingest sample: drop-rate accounting
// plus the antenna's drift estimator (O(1), one Sincos). Called on the
// ingest hot path; a nil monitor costs one nil check.
func (m *Monitor) ObserveSample(antenna string, t time.Duration, pos geom.Vec3, phase float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.accepted++
	m.advanceLocked(t)
	if d := m.drift[antenna]; d != nil {
		d.add(pos, phase)
	}
	m.mu.Unlock()
}

// ObserveDrop records one lost sample: one that left its window before any
// solve saw it.
func (m *Monitor) ObserveDrop(t time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.dropped++
	m.advanceLocked(t)
	m.mu.Unlock()
}

// ObserveSolve feeds one window solve through the rule set: it updates the
// global rates and advances every matching alert state machine.
func (m *Monitor) ObserveSolve(o SolveObservation) {
	if m == nil {
		return
	}
	begin := time.Now()
	m.observed.Inc()
	m.mu.Lock()
	m.advanceLocked(o.Time)
	now := m.now

	m.errRate.add(bool01(o.Failed))
	if dA, dD := m.accepted-m.lastAccepted, m.dropped-m.lastDropped; dA+dD > 0 {
		m.dropRate.add(float64(dD) / float64(dA+dD))
		m.lastAccepted, m.lastDropped = m.accepted, m.dropped
	}
	for _, r := range m.rules {
		switch r.Signal {
		case SignalCondition:
			if !o.Failed {
				m.transitionLocked(r, o.Tag, o.Tag, o.Condition > r.Threshold, o.Condition, o.Condition, now)
			}
		case SignalErrorRate:
			m.transitionLocked(r, "", o.Tag, m.errRate.v > r.Threshold, m.errRate.v, m.errRate.v, now)
		case SignalDropRate:
			m.transitionLocked(r, "", o.Tag, m.dropRate.v > r.Threshold, m.dropRate.v, m.dropRate.v, now)
		}
	}

	for _, ant := range m.order {
		d := m.drift[ant]
		st := d.status()
		gauge := 0.0
		if st.Valid {
			gauge = st.DriftRad / (4 * math.Pi)
		}
		m.driftGauges[ant].Set(gauge)
		for _, r := range m.rules {
			if r.Signal == SignalDrift {
				m.transitionLocked(r, ant, o.Tag,
					st.Valid && st.DriftLambda > r.Threshold, st.DriftLambda, st.DriftRad, now)
			}
		}
	}
	hooks := m.hookQueue
	m.hookQueue = nil
	fn := m.cfg.OnTransition
	m.mu.Unlock()
	for _, a := range hooks {
		fn(a)
	}
	m.evalSeconds.Observe(time.Since(begin).Seconds())
}

// SetOnTransition installs (or replaces) the transition subscriber after
// construction — the wiring hook for consumers built after the monitor,
// such as the recalibration controller. Transitions evaluated before the
// subscriber is installed are not replayed.
func (m *Monitor) SetOnTransition(fn func(Alert)) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.cfg.OnTransition = fn
	m.mu.Unlock()
}

func bool01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// transitionLocked advances the alert state machine of one rule and subject
// (a tag id, an antenna id, or "" for the stream-wide rates) by one
// evaluation tick; tag is the tag whose solve drove the tick. The alert's
// scope string is built only when a violation creates its state, so a
// healthy tick allocates nothing.
func (m *Monitor) transitionLocked(r Rule, subject, tag string, violating bool, value, raw float64, now time.Duration) {
	key := alertKey{rule: r.Name, subject: subject}
	st := m.active[key]
	if violating {
		if st == nil {
			st = &alertState{Alert: Alert{
				Rule: r.Name, Signal: r.Signal, Severity: r.Severity, Scope: scopeOf(r.Signal, subject),
				State: StatePending, Threshold: r.Threshold, StartedAt: now,
			}}
			m.active[key] = st
			m.transPending.Inc()
			m.cfg.Logger.Info("alert pending", "rule", r.Name, "scope", st.Scope, "value", value)
			st.Value, st.RawValue, st.UpdatedAt = value, raw, now
			m.enqueueHookLocked(st.Alert)
		}
		st.Value, st.RawValue, st.UpdatedAt = value, raw, now
		st.healthy = false
		if st.State == StatePending && now-st.StartedAt >= r.HoldDown {
			st.State = StateFiring
			st.FiredAt = now
			st.Tag = tag
			m.firingGauges[r.Name].Add(1)
			m.transFiring.Inc()
			m.cfg.Logger.Warn("alert firing",
				"rule", r.Name, "scope", st.Scope, "severity", r.Severity.String(),
				"value", value, "threshold", r.Threshold)
			m.enqueueHookLocked(st.Alert)
		}
		return
	}
	if st == nil {
		return
	}
	st.UpdatedAt = now
	switch st.State {
	case StatePending:
		delete(m.active, key)
		m.transCanceled.Inc()
	case StateFiring:
		if !st.healthy {
			st.healthy, st.healthySince = true, now
		}
		if now-st.healthySince >= r.resolveAfter() {
			st.State = StateResolved
			st.ResolvedAt = now
			delete(m.active, key)
			m.resolved.Push(st.Alert)
			m.firingGauges[r.Name].Add(-1)
			m.transResolved.Inc()
			m.cfg.Logger.Info("alert resolved", "rule", r.Name, "scope", st.Scope)
			m.enqueueHookLocked(st.Alert)
		}
	}
}

// enqueueHookLocked queues an alert copy for post-unlock delivery to the
// OnTransition subscriber.
func (m *Monitor) enqueueHookLocked(a Alert) {
	if m.cfg.OnTransition != nil {
		m.hookQueue = append(m.hookQueue, a)
	}
}

// SwapCalibration moves an antenna's drift reference to a new phase center,
// offset and wavelength, keeping its configured window, and resets its
// estimator: the sliding window is emptied so the re-estimate restarts from
// post-swap samples only, never mixing offsets measured under the old
// profile with the new reference. A firing calibration_drift alert for the
// antenna therefore heals on its own once the corrected profile's samples
// fill the window. It validates the new reference before changing
// anything. An antenna without a calibration registered at construction
// has no drift reference: the call (like any call on a nil monitor)
// changes nothing and returns nil, which keeps the gauge and alert-scope
// cardinality bounded by configuration. stream.Engine.SwapProfile is the
// caller.
func (m *Monitor) SwapCalibration(antenna string, center geom.Vec3, offset, lambda float64) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.drift[antenna]
	if d == nil {
		return nil
	}
	cal := d.cal
	cal.Center, cal.Offset, cal.Lambda = center, offset, lambda
	if err := cal.validate(); err != nil {
		return err
	}
	m.drift[antenna] = newDriftEstimator(cal)
	return nil
}

// Alerts returns every active alert plus the recently-resolved history:
// firing first, then pending (each newest first), then resolved newest
// first. The returned alerts are copies.
func (m *Monitor) Alerts() []Alert {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Alert, 0, len(m.active)+m.resolved.Len())
	for _, st := range m.active {
		out = append(out, st.Alert)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].State != out[j].State {
			return out[i].State == StateFiring
		}
		if out[i].StartedAt != out[j].StartedAt {
			return out[i].StartedAt > out[j].StartedAt
		}
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Scope < out[j].Scope
	})
	for i := m.resolved.Len() - 1; i >= 0; i-- {
		out = append(out, m.resolved.At(i))
	}
	return out
}

// CriticalFiring reports whether any critical-severity alert is firing —
// the readiness signal. Nil-safe: a nil monitor is always ready.
func (m *Monitor) CriticalFiring() bool {
	if m == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, st := range m.active {
		if st.State == StateFiring && st.Severity == SevCritical {
			return true
		}
	}
	return false
}

// Drifts returns the drift status of every calibrated antenna, in
// configuration order.
func (m *Monitor) Drifts() []DriftStatus {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]DriftStatus, 0, len(m.order))
	for _, ant := range m.order {
		out = append(out, m.drift[ant].status())
	}
	return out
}
