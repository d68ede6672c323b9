package lion

import (
	"io"

	"github.com/rfid-lion/lion/internal/obs"
)

// Observability re-exports: the metrics registry, solve tracer, and
// structured logger behind liond's /metrics and /debug/trace endpoints.
// Attach a Tracer through SolveOptions.Trace to record per-IRWLS-iteration
// and per-candidate solver events; a nil Tracer is free on the hot path. A
// StreamEngine with a HealthMonitor traces every window solve into the
// monitor's flight recorder.
type (
	// Registry is a central metrics registry with Prometheus exposition.
	Registry = obs.Registry
	// Counter is a monotonically increasing metric.
	Counter = obs.Counter
	// Gauge is a settable metric.
	Gauge = obs.Gauge
	// Histogram is a bucketed distribution metric with windowed quantiles.
	Histogram = obs.Histogram
	// Tracer records solve-trace events; nil means tracing off.
	Tracer = obs.Tracer
	// TraceEvent is one solve-trace record (NDJSON line).
	TraceEvent = obs.Event
	// Logger writes structured JSON log lines.
	Logger = obs.Logger
)

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewTracer returns an enabled solve tracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewLogger returns a JSON-lines logger writing to w.
func NewLogger(w io.Writer) *Logger { return obs.NewLogger(w) }

// DefBuckets are the default latency histogram buckets, in seconds.
var DefBuckets = obs.DefBuckets
