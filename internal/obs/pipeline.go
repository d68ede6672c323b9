// Pipeline tracing: propagatable trace contexts and the bounded span log.
//
// The types here record where a sample batch spent its time between pipeline
// stages — router ingest, forward queue, wire transfer, shard decode, engine
// queue, solve, publish. A deterministic 1-in-N sampler stamps selected ingest
// batches with a TraceContext; every stage that touches a sampled batch
// appends one PipeSpan to its process-local SpanLog, and lionroute reassembles
// the per-process logs into one end-to-end trace by trace id.
//
// The untraced path is free by construction: an unsampled TraceContext is two
// zero words, Record on an unsampled context returns before taking the lock,
// and a nil *Sampler or *SpanLog disables the layer entirely — all without a
// single heap allocation (TestPipelineUntracedZeroAllocs).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rfid-lion/lion/internal/stats"
)

// TraceContext identifies one sampled ingest batch across processes. The zero
// value is the unsampled state and costs nothing to carry.
type TraceContext struct {
	// ID is the deterministic trace id, meaningful only when Sampled.
	ID uint64
	// Sampled gates every tracing side effect on the pipeline.
	Sampled bool
}

// TraceIDString renders a trace id the way it appears in span exports and
// exemplars: 16 lowercase hex digits.
func TraceIDString(id uint64) string {
	return fmt.Sprintf("%016x", id)
}

// ParseTraceID parses the 16-hex-digit form accepted from URLs.
func ParseTraceID(s string) (uint64, error) {
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad trace id %q: %w", s, err)
	}
	return id, nil
}

// Sampler selects one in every N ingest batches for pipeline tracing and
// assigns it a deterministic trace id derived from (seed, batch ordinal) —
// no clock or RNG on the hot path, and a fixed seed replays the same ids.
// A nil Sampler never samples; all methods are safe for concurrent use.
type Sampler struct {
	n    uint64
	seed uint64
	ctr  atomic.Uint64
}

// NewSampler returns a sampler tracing one in every n batches (the first,
// then every n-th). n <= 0 disables sampling: Next always returns the
// unsampled context.
func NewSampler(n int, seed uint64) *Sampler {
	if n <= 0 {
		return &Sampler{}
	}
	return &Sampler{n: uint64(n), seed: seed}
}

// Next advances the batch counter and returns the trace decision for this
// batch. Zero allocations on both outcomes.
func (s *Sampler) Next() TraceContext {
	if s == nil || s.n == 0 {
		return TraceContext{}
	}
	k := s.ctr.Add(1) - 1
	if k%s.n != 0 {
		return TraceContext{}
	}
	id := splitmix64(s.seed + k)
	if id == 0 {
		id = 1 // keep 0 free as the "no trace" sentinel in URLs and spans
	}
	return TraceContext{ID: id, Sampled: true}
}

// splitmix64 is the SplitMix64 finalizer: a bijective mixer whose outputs are
// uniformly spread even for sequential inputs — exactly what (seed + ordinal)
// produces.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// PipeSpan is one pipeline stage crossing of a sampled batch. Spans carry
// absolute wall-clock nanoseconds so spans from different processes order on
// a common axis.
type PipeSpan struct {
	// TraceID links the span to its trace.
	TraceID uint64
	// Service names the recording process ("lionroute", "liond").
	Service string
	// Stage names the pipeline stage ("ingest_decode", "queue_wait", ...).
	Stage string
	// Tag scopes per-tag stages (solve, publish); empty for batch stages.
	Tag string
	// Start is the stage start, unix nanoseconds.
	Start int64
	// Dur is the stage duration in nanoseconds.
	Dur int64
}

// pipeSpanJSON is the frozen export schema of one span.
type pipeSpanJSON struct {
	TraceID string `json:"trace_id"`
	Service string `json:"service"`
	Stage   string `json:"stage"`
	Tag     string `json:"tag,omitempty"`
	StartNS int64  `json:"start_unix_ns"`
	DurNS   int64  `json:"duration_ns"`
}

// MarshalJSON renders the span with the trace id in its canonical hex form.
func (s PipeSpan) MarshalJSON() ([]byte, error) {
	return json.Marshal(pipeSpanJSON{
		TraceID: TraceIDString(s.TraceID),
		Service: s.Service,
		Stage:   s.Stage,
		Tag:     s.Tag,
		StartNS: s.Start,
		DurNS:   s.Dur,
	})
}

// UnmarshalJSON accepts the export form back, so lionroute can merge span
// logs fetched from shards.
func (s *PipeSpan) UnmarshalJSON(b []byte) error {
	var j pipeSpanJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	id, err := ParseTraceID(j.TraceID)
	if err != nil {
		return err
	}
	*s = PipeSpan{TraceID: id, Service: j.Service, Stage: j.Stage, Tag: j.Tag,
		Start: j.StartNS, Dur: j.DurNS}
	return nil
}

// SpanLog is a bounded in-memory ring of pipeline spans: old spans are
// overwritten once the capacity is reached, so a long-lived daemon holds a
// recent window rather than an unbounded history. A nil SpanLog is the
// disabled state — Record is a no-op — and recording an unsampled context
// returns before taking the lock; both paths are allocation-free.
type SpanLog struct {
	mu      sync.Mutex
	service string
	ring    stats.Ring[PipeSpan]
}

// DefaultSpanLogCap bounds a span log when no capacity is given: at ~6 spans
// per sampled batch this retains the last few hundred traces.
const DefaultSpanLogCap = 4096

// NewSpanLog returns a log for the named service keeping the most recent
// capacity spans (DefaultSpanLogCap when capacity <= 0).
func NewSpanLog(service string, capacity int) *SpanLog {
	if capacity <= 0 {
		capacity = DefaultSpanLogCap
	}
	return &SpanLog{service: service, ring: stats.NewRing[PipeSpan](capacity)}
}

// Service returns the name spans are recorded under.
func (l *SpanLog) Service() string {
	if l == nil {
		return ""
	}
	return l.service
}

// Record appends one span for a sampled context; unsampled contexts and nil
// logs cost one branch and allocate nothing.
func (l *SpanLog) Record(tc TraceContext, stage, tag string, start time.Time, dur time.Duration) {
	if l == nil || !tc.Sampled {
		return
	}
	l.RecordAt(tc, stage, tag, start.UnixNano(), int64(dur))
}

// RecordAt is Record with pre-computed clock readings, for callers that
// already hold the timestamps as integers (the wire decoder, tests).
func (l *SpanLog) RecordAt(tc TraceContext, stage, tag string, startUnixNano, durNano int64) {
	if l == nil || !tc.Sampled {
		return
	}
	l.mu.Lock()
	l.ring.Push(PipeSpan{
		TraceID: tc.ID,
		Service: l.service,
		Stage:   stage,
		Tag:     tag,
		Start:   startUnixNano,
		Dur:     durNano,
	})
	l.mu.Unlock()
}

// Len returns the number of retained spans.
func (l *SpanLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Len()
}

// Total returns the number of spans ever recorded (retained or evicted).
func (l *SpanLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Total()
}

// Spans returns the retained spans of one trace in record order, or nil when
// the trace is unknown (evicted, never sampled, or recorded elsewhere).
func (l *SpanLog) Spans(traceID uint64) []PipeSpan {
	return l.filter(func(s PipeSpan) bool { return s.TraceID == traceID })
}

// NewestForTag returns the spans of the tag's newest sampled solve, oldest
// first: the newest retained span naming the tag, and the earlier spans of
// the same trace and tag up to the first repeated stage. Nil when no
// retained span names the tag.
func (l *SpanLog) NewestForTag(tag string) []PipeSpan {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []PipeSpan
	for i := l.ring.Len() - 1; i >= 0; i-- {
		s := l.ring.At(i)
		if s.Tag != tag || (len(out) > 0 && s.TraceID != out[0].TraceID) {
			continue
		}
		if slices.ContainsFunc(out, func(o PipeSpan) bool { return o.Stage == s.Stage }) {
			break
		}
		out = append(out, s)
	}
	slices.Reverse(out)
	return out
}

// All returns every retained span, oldest first.
func (l *SpanLog) All() []PipeSpan {
	return l.filter(func(PipeSpan) bool { return true })
}

func (l *SpanLog) filter(keep func(PipeSpan) bool) []PipeSpan {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []PipeSpan
	for i := 0; i < l.ring.Len(); i++ {
		if s := l.ring.At(i); keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// WriteNDJSON writes spans as one JSON object per line, oldest first. A zero
// traceID exports every retained span; otherwise only that trace's spans.
func (l *SpanLog) WriteNDJSON(w io.Writer, traceID uint64) error {
	var spans []PipeSpan
	if traceID == 0 {
		spans = l.All()
	} else {
		spans = l.Spans(traceID)
	}
	return WriteNDJSON(w, spans)
}

// ServeHTTP serves GET /debug/pipespans on liond and lionroute alike: the
// retained spans as NDJSON, or only one trace's spans with ?trace=<16 hex
// digits> (the form lionroute fetches to assemble /v1/trace/{id}). A
// malformed id is a 400; a nil log serves an empty body.
func (l *SpanLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var id uint64
	if q := r.URL.Query().Get("trace"); q != "" {
		v, err := ParseTraceID(q)
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("bad trace id: %w", err))
			return
		}
		id = v
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	l.WriteNDJSON(w, id)
}
