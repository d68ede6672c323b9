package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event kinds emitted by the tracer.
const (
	KindSpanStart = "span_start"
	KindSpanEnd   = "span_end"
	KindIRLSIter  = "irls_iter"
	KindCandidate = "candidate"
	KindNote      = "note"
)

// Event is one solve-trace record. Events serialise to NDJSON with monotonic
// microsecond timestamps relative to the tracer's creation; fields irrelevant
// to an event's kind are omitted.
type Event struct {
	TMicros   int64  `json:"t_us"`
	Kind      string `json:"event"`
	Span      string `json:"span,omitempty"`
	DurMicros int64  `json:"duration_us,omitempty"`

	// irls_iter fields (Eqs. 13–16): Iter counts from 1; Residual is the
	// 2-norm of the residual vector entering the re-weighting; FloorHits is
	// the number of rows whose Gaussian weight fell below core.WeightFloor
	// (effectively discarded outliers); Condition is the solver's condition
	// estimate of the unweighted system.
	Iter      int     `json:"iter,omitempty"`
	Residual  float64 `json:"residual_norm,omitempty"`
	FloorHits int     `json:"weight_floor_hits,omitempty"`
	Condition float64 `json:"condition_estimate,omitempty"`

	// candidate fields (adaptive sweep, Sec. IV-C-1): the scanned range and
	// pairing interval plus the weighted mean residual the selection rule
	// ranks by.
	ScanRange float64 `json:"scan_range_m,omitempty"`
	Interval  float64 `json:"interval_m,omitempty"`
	WResidual float64 `json:"weighted_residual,omitempty"`

	// Detail carries free-form annotations (note events); Err carries a
	// failed candidate's error text.
	Detail string `json:"detail,omitempty"`
	Err    string `json:"error,omitempty"`
}

// Tracer collects solve-trace events. The nil Tracer is the disabled state:
// every method is a no-op costing one nil check and zero allocations, so the
// hot path can call through unconditionally. Non-nil tracers are safe for
// concurrent use (adaptive sweeps emit from pool workers).
type Tracer struct {
	mu     sync.Mutex
	start  time.Time
	events []Event
}

// NewTracer returns an enabled tracer; timestamps are monotonic microseconds
// since this call.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now()}
}

// Reset empties the tracer for reuse: it keeps the event storage, and
// timestamps restart from this call. Slices Events returned earlier are
// copies and stay as they were. The caller must ensure no emit runs
// concurrently with Reset.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.start = time.Now()
	t.events = t.events[:0]
	t.mu.Unlock()
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

func (t *Tracer) emit(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

func (t *Tracer) since() int64 {
	return time.Since(t.start).Microseconds()
}

// SpanMark is an open span: a value-type handle whose End emits the matching
// span_end. It moves only a three-word struct, so a traced span costs no heap
// allocation beyond its two events, and a nil tracer's span costs nothing.
type SpanMark struct {
	t     *Tracer
	span  string
	begin int64
}

// SpanAt emits a span_start event and returns the mark whose End emits the
// matching span_end. Usage:
//
//	defer tr.SpanAt("solve").End()
//
// A nil tracer returns the zero mark; both calls are then no-ops.
func (t *Tracer) SpanAt(span string) SpanMark {
	if t == nil {
		return SpanMark{}
	}
	begin := t.since()
	t.emit(Event{TMicros: begin, Kind: KindSpanStart, Span: span})
	return SpanMark{t: t, span: span, begin: begin}
}

// End emits the span_end event for the mark's span. Safe on the zero mark.
func (m SpanMark) End() {
	if m.t == nil {
		return
	}
	end := m.t.since()
	m.t.emit(Event{TMicros: end, Kind: KindSpanEnd, Span: m.span, DurMicros: end - m.begin})
}

// IRLSIter records one iteration of the re-weighted least-squares refinement.
func (t *Tracer) IRLSIter(span string, iter int, residualNorm float64, floorHits int, condition float64) {
	if t == nil {
		return
	}
	t.emit(Event{
		TMicros:   t.since(),
		Kind:      KindIRLSIter,
		Span:      span,
		Iter:      iter,
		Residual:  residualNorm,
		FloorHits: floorHits,
		Condition: condition,
	})
}

// Candidate records one evaluated (range, interval) cell of an adaptive
// sweep with its weighted mean residual, or the error that disqualified it.
func (t *Tracer) Candidate(span string, scanRange, interval, weightedResidual float64, err error) {
	if t == nil {
		return
	}
	e := Event{
		TMicros:   t.since(),
		Kind:      KindCandidate,
		Span:      span,
		ScanRange: scanRange,
		Interval:  interval,
		WResidual: weightedResidual,
	}
	if err != nil {
		e.Err = err.Error()
	}
	t.emit(e)
}

// Note records a free-form annotation.
func (t *Tracer) Note(span, detail string) {
	if t == nil {
		return
	}
	t.emit(Event{TMicros: t.since(), Kind: KindNote, Span: span, Detail: detail})
}

// Events returns a copy of the recorded events in emission order, or nil for
// a nil tracer.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// WriteNDJSON writes the recorded events as one JSON object per line.
func (t *Tracer) WriteNDJSON(w io.Writer) error {
	return WriteNDJSON(w, t.Events())
}

// WriteNDJSON writes items as NDJSON, one JSON object per line (solve-trace
// events, pipeline spans).
func WriteNDJSON[T any](w io.Writer, items []T) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, it := range items {
		if err := enc.Encode(it); err != nil {
			return err
		}
	}
	return bw.Flush()
}
