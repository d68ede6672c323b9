package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/rfid-lion/lion/internal/stats"
)

// metricNameRE is the Prometheus metric-name grammar. The stricter project
// rule — every name starts with lion_ and uses only lowercase and
// underscores — is enforced at build time by tools/metriclint.
var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// metric is one named exposition unit.
type metric interface {
	describe() (name, help, typ string)
	expose(w io.Writer)
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Registration is idempotent: asking for an existing name
// returns the existing metric when the kind matches and panics on a kind
// mismatch (a programming error, like prometheus.MustRegister).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// register stores m under its name, or returns the already-registered metric
// of the same name after checking the kind matches.
func (r *Registry) register(name string, m metric) metric {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.metrics[name]; ok {
		_, _, oldTyp := old.describe()
		_, _, newTyp := m.describe()
		if oldTyp != newTyp {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, newTyp, oldTyp))
		}
		return old
	}
	r.metrics[name] = m
	return m
}

// Counter returns the monotonically increasing counter with this name,
// creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, &Counter{name: name, help: help}).(*Counter)
}

// CounterVec returns a counter family keyed by one label, creating it on
// first use.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return r.register(name, &CounterVec{name: name, help: help, label: label}).(*CounterVec)
}

// Gauge returns the settable gauge with this name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, &Gauge{name: name, help: help}).(*Gauge)
}

// GaugeFunc registers a gauge whose value is sampled from fn at exposition
// time. Re-registering the same name keeps the first function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, &gaugeFunc{name: name, help: help, fn: fn})
}

// GaugeVec returns a gauge family keyed by one label, creating it on first
// use.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return r.register(name, &GaugeVec{name: name, help: help, label: label}).(*GaugeVec)
}

// Histogram returns the histogram with this name, creating it on first use
// with the given bucket upper bounds (nil means DefBuckets). Besides the
// cumulative Prometheus buckets it keeps the recent observations' quantiles
// (see Histogram).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, newHistogram(name, help, buckets)).(*Histogram)
}

// FindHistogram returns the registered histogram with this name, if any —
// read access for in-process consumers (liond's /v1/slo) without
// re-registering.
func (r *Registry) FindHistogram(name string) (*Histogram, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.metrics[name].(*Histogram)
	return h, ok
}

// Names returns the registered metric names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// WritePrometheus renders every metric in the text exposition format
// (version 0.0.4), sorted by name for deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	ordered := make([]metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ordered = append(ordered, m)
	}
	r.mu.Unlock()
	sort.Slice(ordered, func(i, j int) bool {
		ni, _, _ := ordered[i].describe()
		nj, _, _ := ordered[j].describe()
		return ni < nj
	})
	for _, m := range ordered {
		name, help, typ := m.describe()
		if help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
		m.expose(w)
	}
}

// Handler serves the exposition over HTTP.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// WriteJSON writes v as a JSON response with the given status. Every JSON
// endpoint of liond and lionroute answers through it.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError writes the {"error": "..."} document with the given status.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// Counter is a monotonically increasing counter. All methods are safe for
// concurrent use and lock-free.
type Counter struct {
	v    atomic.Uint64
	name string
	help string
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by delta.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) describe() (string, string, string) { return c.name, c.help, "counter" }

func (c *Counter) expose(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", c.name, c.Value())
}

// CounterVec is a family of counters distinguished by the value of a single
// label (e.g. lion_stream_dropped_total{reason=...}).
type CounterVec struct {
	mu       sync.Mutex
	children map[string]*Counter
	name     string
	help     string
	label    string
}

// With returns the child counter for the label value, creating it on first
// use. Hot paths should call With once up front and keep the child.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.children == nil {
		v.children = make(map[string]*Counter)
	}
	c, ok := v.children[value]
	if !ok {
		c = &Counter{name: v.name}
		v.children[value] = c
	}
	return c
}

func (v *CounterVec) describe() (string, string, string) { return v.name, v.help, "counter" }

func (v *CounterVec) expose(w io.Writer) {
	v.mu.Lock()
	values := make([]string, 0, len(v.children))
	for value := range v.children {
		values = append(values, value)
	}
	sort.Strings(values)
	children := make([]*Counter, len(values))
	for i, value := range values {
		children[i] = v.children[value]
	}
	v.mu.Unlock()
	for i, value := range values {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", v.name, v.label, value, children[i].Value())
	}
}

// GaugeVec is a family of gauges distinguished by the value of a single
// label (e.g. lion_health_drift_lambda{antenna=...}). Label values must come
// from a bounded set — configuration, rule names — never from unbounded
// request inputs; tools/metriclint flags dynamic values without a
// metriclint:bounded marker.
type GaugeVec struct {
	mu       sync.Mutex
	children map[string]*Gauge
	name     string
	help     string
	label    string
}

// With returns the child gauge for the label value, creating it on first
// use. Hot paths should call With once up front and keep the child.
func (v *GaugeVec) With(value string) *Gauge {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.children == nil {
		v.children = make(map[string]*Gauge)
	}
	g, ok := v.children[value]
	if !ok {
		g = &Gauge{name: v.name}
		v.children[value] = g
	}
	return g
}

func (v *GaugeVec) describe() (string, string, string) { return v.name, v.help, "gauge" }

func (v *GaugeVec) expose(w io.Writer) {
	v.mu.Lock()
	values := make([]string, 0, len(v.children))
	for value := range v.children {
		values = append(values, value)
	}
	sort.Strings(values)
	children := make([]*Gauge, len(values))
	for i, value := range values {
		children[i] = v.children[value]
	}
	v.mu.Unlock()
	for i, value := range values {
		fmt.Fprintf(w, "%s{%s=%q} %s\n", v.name, v.label, value, formatFloat(children[i].Value()))
	}
}

// Gauge is a value that can go up and down, stored as atomic float bits.
type Gauge struct {
	bits atomic.Uint64
	name string
	help string
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) describe() (string, string, string) { return g.name, g.help, "gauge" }

func (g *Gauge) expose(w io.Writer) {
	fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.Value()))
}

// gaugeFunc samples its value at exposition time.
type gaugeFunc struct {
	name string
	help string
	fn   func() float64
}

func (g *gaugeFunc) describe() (string, string, string) { return g.name, g.help, "gauge" }

func (g *gaugeFunc) expose(w io.Writer) {
	fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.fn()))
}

// DefBuckets are the default histogram buckets, spanning 10 µs to 10 s —
// sized for solve latencies (a 256-sample window solves in ~100 µs).
var DefBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// quantileWindow is the size of one quantile epoch: quantiles cover the
// most recent quantileWindow to 2×quantileWindow−1 observations.
const quantileWindow = 1024

// Histogram counts observations into cumulative buckets (exact Prometheus
// histogram exposition) and additionally answers windowed quantiles without
// a scrape. The quantiles come from two stats.Hist epochs: Observe records
// into the current one and, once it holds quantileWindow observations,
// resets the other and makes it current. A read merges both.
type Histogram struct {
	mu     sync.Mutex
	upper  []float64 // ascending bucket upper bounds; +Inf is implicit
	counts []uint64  // per-bucket (non-cumulative) counts; last is +Inf
	sum    float64
	count  uint64
	epochs [2]stats.Hist
	cur    int // index of the epoch Observe records into
	// exemplars holds the latest sampled observation per bucket (parallel to
	// counts), allocated lazily on the first ObserveExemplar with a sampled
	// context so exemplar-free histograms pay nothing.
	exemplars []exemplar
	name      string
	help      string
}

// exemplar is the last sampled observation that landed in one bucket,
// rendered as an OpenMetrics-style `# {trace_id="..."} value` annotation.
// Storing the raw trace id (not a formatted string) keeps ObserveExemplar
// allocation-free after the lazy slice exists.
type exemplar struct {
	traceID uint64
	value   float64
	valid   bool
}

func newHistogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	upper := make([]float64, len(buckets))
	copy(upper, buckets)
	sort.Float64s(upper)
	return &Histogram{
		upper:  upper,
		counts: make([]uint64, len(upper)+1),
		name:   name,
		help:   help,
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.observeLocked(v)
}

// observeLocked records v and returns its bucket index. Caller holds h.mu.
func (h *Histogram) observeLocked(v float64) int {
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i]++
	h.sum += v
	h.count++
	e := &h.epochs[h.cur]
	e.Record(v)
	if e.Count() == quantileWindow {
		h.cur ^= 1
		h.epochs[h.cur].Reset()
	}
	return i
}

// ObserveExemplar records one value and, when the context is sampled,
// remembers it as the bucket's exemplar: the exposition then annotates that
// bucket with the trace id, linking the metric to its end-to-end trace. With
// an unsampled context this is exactly Observe — no exemplar state is touched
// and nothing is allocated.
func (h *Histogram) ObserveExemplar(v float64, tc TraceContext) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := h.observeLocked(v)
	if !tc.Sampled {
		return
	}
	if h.exemplars == nil {
		h.exemplars = make([]exemplar, len(h.counts))
	}
	h.exemplars[i] = exemplar{traceID: tc.ID, value: v, valid: true}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile returns the p-th percentile (p in [0, 100]) of the recent
// observations, with stats.Hist.Quantile's contract: the upper bound of the
// HDR bucket holding the nearest-rank observation, clamped to the window's
// exact min and max. From 1 µs up that is at most 1/32 above the exact
// value; smaller values share one bucket, and negative or NaN ones count as
// 0. ok is false when nothing has been observed yet or p is out of range.
func (h *Histogram) Quantile(p float64) (v float64, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	w := h.windowLocked()
	return w.Quantile(p / 100)
}

// windowLocked merges the two epochs into one stats.Hist, returned by value
// so the read allocates nothing. Caller holds h.mu.
func (h *Histogram) windowLocked() stats.Hist {
	w := h.epochs[h.cur]
	w.Merge(&h.epochs[h.cur^1])
	return w
}

// Quantiles is one latency dimension of a /v1/slo document: the windowed
// p50/p95/p99 and the lifetime observation count. A zero Count means "no
// evidence", and then every quantile is zero too. liond serves it per
// dimension, lionroute rolls it up across shards, and lionload scrapes it;
// changing the field set is a cluster protocol change.
type Quantiles struct {
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Count uint64  `json:"count"`
}

// SLO is a decoded /v1/slo document.
type SLO struct {
	// Dims maps dimension keys ("staleness_seconds", ...) to their quantiles.
	Dims map[string]Quantiles
	// AlertLatency is alert_latency_seconds; AlertSeen reports whether the
	// document carried it (it is absent until an alert has fired).
	AlertLatency float64
	AlertSeen    bool
}

// ParseSLO decodes a node's /v1/slo document or the cluster section of the
// router's. A key whose value does not decode as Quantiles is skipped.
func ParseSLO(body []byte) (SLO, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		return SLO{}, err
	}
	doc := SLO{Dims: make(map[string]Quantiles, len(raw))}
	for key, msg := range raw {
		if key == "alert_latency_seconds" {
			doc.AlertSeen = json.Unmarshal(msg, &doc.AlertLatency) == nil
			continue
		}
		var q Quantiles
		if json.Unmarshal(msg, &q) == nil {
			doc.Dims[key] = q
		}
	}
	return doc, nil
}

// Quantiles summarises the histogram as one /v1/slo dimension. Quantiles
// come from the recent observations, as Quantile reads them; an empty
// histogram reports the explicit zero document.
func (h *Histogram) Quantiles() Quantiles {
	h.mu.Lock()
	defer h.mu.Unlock()
	w := h.windowLocked()
	q := Quantiles{Count: h.count}
	// An empty window leaves every quantile at its zero value.
	q.P50, _ = w.Quantile(0.50)
	q.P95, _ = w.Quantile(0.95)
	q.P99, _ = w.Quantile(0.99)
	return q
}

func (h *Histogram) describe() (string, string, string) { return h.name, h.help, "histogram" }

func (h *Histogram) expose(w io.Writer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var cum uint64
	for i, ub := range h.upper {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d%s\n", h.name, formatFloat(ub), cum, h.exemplarSuffix(i))
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d%s\n", h.name, h.count, h.exemplarSuffix(len(h.counts)-1))
	fmt.Fprintf(w, "%s_sum %s\n", h.name, formatFloat(h.sum))
	fmt.Fprintf(w, "%s_count %d\n", h.name, h.count)
}

// exemplarSuffix renders the OpenMetrics exemplar annotation for one bucket,
// or "" when the bucket has none — exemplar-free expositions are unchanged
// byte for byte. Caller holds h.mu.
func (h *Histogram) exemplarSuffix(i int) string {
	if h.exemplars == nil || !h.exemplars[i].valid {
		return ""
	}
	ex := h.exemplars[i]
	return fmt.Sprintf(" # {trace_id=%q} %s", TraceIDString(ex.traceID), formatFloat(ex.value))
}

// formatFloat renders a float the way Prometheus clients do: shortest
// round-trip representation.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
