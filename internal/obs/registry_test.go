package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrentIncrement hammers one counter, one vec child, one
// gauge, and one histogram from many goroutines; run under -race this is the
// registry's data-race proof, and the final values prove no increment is
// lost.
func TestRegistryConcurrentIncrement(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("lion_test_ops_total", "ops")
	vec := r.CounterVec("lion_test_dropped_total", "drops", "reason")
	overflow := vec.With("overflow")
	g := r.Gauge("lion_test_depth", "depth")
	h := r.Histogram("lion_test_latency_seconds", "latency", nil)

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				overflow.Inc()
				g.Add(1)
				h.Observe(0.001)
				var sb strings.Builder
				if i%100 == 0 {
					r.WritePrometheus(&sb) // scrape while writing
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := overflow.Value(); got != workers*per {
		t.Errorf("vec child = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Errorf("gauge = %g, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
}

// TestRegistryExpositionGolden pins the exact Prometheus text format: HELP
// and TYPE headers, sorted metric order, label quoting, cumulative histogram
// buckets with +Inf, and _sum/_count.
func TestRegistryExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("lion_test_ingested_total", "samples accepted")
	c.Add(42)
	vec := r.CounterVec("lion_test_dropped_total", "samples dropped", "reason")
	vec.With("overflow").Add(3)
	vec.With("age").Inc()
	g := r.Gauge("lion_test_tags", "known tags")
	g.Set(2)
	r.GaugeFunc("lion_test_uptime_seconds", "uptime", func() float64 { return 1.5 })
	h := r.Histogram("lion_test_latency_seconds", "solve latency", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(7)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	want := `# HELP lion_test_dropped_total samples dropped
# TYPE lion_test_dropped_total counter
lion_test_dropped_total{reason="age"} 1
lion_test_dropped_total{reason="overflow"} 3
# HELP lion_test_ingested_total samples accepted
# TYPE lion_test_ingested_total counter
lion_test_ingested_total 42
# HELP lion_test_latency_seconds solve latency
# TYPE lion_test_latency_seconds histogram
lion_test_latency_seconds_bucket{le="0.01"} 1
lion_test_latency_seconds_bucket{le="0.1"} 3
lion_test_latency_seconds_bucket{le="1"} 3
lion_test_latency_seconds_bucket{le="+Inf"} 4
lion_test_latency_seconds_sum 7.105
lion_test_latency_seconds_count 4
# HELP lion_test_tags known tags
# TYPE lion_test_tags gauge
lion_test_tags 2
# HELP lion_test_uptime_seconds uptime
# TYPE lion_test_uptime_seconds gauge
lion_test_uptime_seconds 1.5
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHistogramExemplarExpositionGolden pins the exemplar-annotated text
// format: a bucket that received a sampled observation carries an
// OpenMetrics-style `# {trace_id="..."} value` suffix on its own line, later
// sampled observations into the same bucket replace the exemplar, and the
// +Inf bucket can carry one too.
func TestHistogramExemplarExpositionGolden(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lion_test_staleness_seconds", "estimate staleness", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.ObserveExemplar(0.05, TraceContext{ID: 0xabc, Sampled: true})
	h.ObserveExemplar(0.07, TraceContext{ID: 0xdef, Sampled: true}) // replaces 0xabc
	h.ObserveExemplar(7, TraceContext{ID: 0x123, Sampled: true})

	var sb strings.Builder
	r.WritePrometheus(&sb)
	want := `# HELP lion_test_staleness_seconds estimate staleness
# TYPE lion_test_staleness_seconds histogram
lion_test_staleness_seconds_bucket{le="0.01"} 1
lion_test_staleness_seconds_bucket{le="0.1"} 3 # {trace_id="0000000000000def"} 0.07
lion_test_staleness_seconds_bucket{le="1"} 3
lion_test_staleness_seconds_bucket{le="+Inf"} 4 # {trace_id="0000000000000123"} 7
lion_test_staleness_seconds_sum 7.125
lion_test_staleness_seconds_count 4
`
	if got := sb.String(); got != want {
		t.Errorf("exemplar exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHistogramWithoutExemplarsUnchanged proves that unsampled contexts leave
// the exposition byte-identical to plain Observe — the with/without pair the
// scrape pipeline contract needs.
func TestHistogramWithoutExemplarsUnchanged(t *testing.T) {
	plain := NewRegistry()
	hp := plain.Histogram("lion_test_staleness_seconds", "estimate staleness", []float64{0.01, 0.1, 1})
	hp.Observe(0.05)
	hp.Observe(7)

	unsampled := NewRegistry()
	hu := unsampled.Histogram("lion_test_staleness_seconds", "estimate staleness", []float64{0.01, 0.1, 1})
	hu.ObserveExemplar(0.05, TraceContext{})
	hu.ObserveExemplar(7, TraceContext{ID: 99, Sampled: false})

	var a, b strings.Builder
	plain.WritePrometheus(&a)
	unsampled.WritePrometheus(&b)
	if a.String() != b.String() {
		t.Errorf("unsampled ObserveExemplar changed the exposition:\n--- plain ---\n%s--- unsampled ---\n%s",
			a.String(), b.String())
	}
	if strings.Contains(b.String(), "trace_id") {
		t.Error("unsampled exposition contains an exemplar annotation")
	}

	// And the unsampled observe path allocates nothing.
	allocs := testing.AllocsPerRun(1000, func() {
		hu.ObserveExemplar(0.05, TraceContext{})
	})
	if allocs != 0 {
		t.Errorf("unsampled ObserveExemplar allocated %.1f times per run, want 0", allocs)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("lion_test_total", "")
	b := r.Counter("lion_test_total", "")
	if a != b {
		t.Error("re-registering the same counter returned a different instance")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("lion_test_total", "")
}

func TestRegistryRejectsBadName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid metric name did not panic")
		}
	}()
	NewRegistry().Counter("lion test with spaces", "")
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewRegistry().Histogram("lion_test_latency_seconds", "", nil)
	if _, ok := h.Quantile(50); ok {
		t.Error("empty histogram reported a quantile")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	p50, ok := h.Quantile(50)
	if !ok || p50 < 50 || p50 > 51 {
		t.Errorf("p50 = %g ok=%v, want ~50.5", p50, ok)
	}
	p99, ok := h.Quantile(99)
	if !ok || p99 < 99 || p99 > 100 {
		t.Errorf("p99 = %g ok=%v, want ~99", p99, ok)
	}
}

// TestHistogramQuantileInterpolates pins the bucket contract that replaced
// interpolation: each quantile is the nearest-rank observation rounded up to
// its HDR bucket bound, at most 1/32 above it, and the extremes are exact.
func TestHistogramQuantileInterpolates(t *testing.T) {
	h := NewRegistry().Histogram("lion_test_latency_seconds", "", nil)
	for _, x := range []float64{4, 1, 3, 2} {
		h.Observe(x)
	}
	// Nearest rank ceil(p/100 × 4) of the sorted {1, 2, 3, 4}.
	for _, c := range []struct{ p, exact float64 }{{25, 1}, {50, 2}, {75, 3}, {99, 4}} {
		v, ok := h.Quantile(c.p)
		if !ok || v < c.exact || v > c.exact*(1+1.0/32) {
			t.Errorf("p%v = %v ok=%v, want in [%v, %v]", c.p, v, ok, c.exact, c.exact*(1+1.0/32))
		}
	}
	if p0, _ := h.Quantile(0); p0 != 1 {
		t.Errorf("p0 = %v, want 1", p0)
	}
	if p100, _ := h.Quantile(100); p100 != 4 {
		t.Errorf("p100 = %v, want 4", p100)
	}
}

// TestHistogramQuantileDegenerateWindows pins the n<2 behaviour: an empty
// window answers every query without panicking, and a single-sample window
// returns that sample for every percentile.
func TestHistogramQuantileDegenerateWindows(t *testing.T) {
	h := NewRegistry().Histogram("lion_test_latency_seconds", "", nil)
	if _, ok := h.Quantile(50); ok {
		t.Error("empty window reported a quantile")
	}
	h.Observe(7)
	for _, p := range []float64{0, 50, 99, 100} {
		if v, ok := h.Quantile(p); !ok || v != 7 {
			t.Errorf("single-sample p%v = %v ok=%v, want 7", p, v, ok)
		}
	}
	for _, p := range []float64{-1, 101} {
		if _, ok := h.Quantile(p); ok {
			t.Errorf("out-of-range percentile %v accepted", p)
		}
	}
}

// TestHistogramWindowKeepsRecent: wherever an observation falls in the epoch
// cycle, it moves the quantiles while it is among the newest quantileWindow
// values and never once 2×quantileWindow−1 newer ones have followed it. Count
// stays lifetime.
func TestHistogramWindowKeepsRecent(t *testing.T) {
	const filler, marker = 1e-3, 1.0
	for _, before := range []int{0, 1, quantileWindow - 1, quantileWindow, quantileWindow + 1, 2*quantileWindow - 1} {
		h := NewRegistry().Histogram("lion_test_latency_seconds", "", nil)
		for i := 0; i < before; i++ {
			h.Observe(filler)
		}
		h.Observe(marker)
		for i := 1; i < quantileWindow; i++ {
			h.Observe(filler)
		}
		if p100, _ := h.Quantile(100); p100 != marker {
			t.Errorf("%d before: p100 = %v with %d newer observations, want the marker %v",
				before, p100, quantileWindow-1, marker)
		}
		for i := quantileWindow; i < 2*quantileWindow; i++ {
			h.Observe(filler)
		}
		if p100, _ := h.Quantile(100); p100 != filler {
			t.Errorf("%d before: p100 = %v with %d newer observations, want the filler %v",
				before, p100, 2*quantileWindow-1, filler)
		}
		if q := h.Quantiles(); q.Count != uint64(before+2*quantileWindow) {
			t.Errorf("%d before: count = %d, want lifetime %d", before, q.Count, before+2*quantileWindow)
		}
	}
}

// TestHistogramQuantileReadsZeroAlloc: reading quantiles merges the epochs
// on the stack; nothing is copied to the heap, even after the window wraps.
func TestHistogramQuantileReadsZeroAlloc(t *testing.T) {
	h := NewRegistry().Histogram("lion_test_latency_seconds", "", nil)
	for i := 0; i < 3*quantileWindow; i++ {
		h.Observe(float64(i%100) * 1e-4)
	}
	if allocs := testing.AllocsPerRun(100, func() { h.Quantiles() }); allocs != 0 {
		t.Errorf("Quantiles allocated %.1f times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { h.Quantile(99) }); allocs != 0 {
		t.Errorf("Quantile(99) allocated %.1f times per call, want 0", allocs)
	}
}

// TestSLORoundTrip: Histogram.Quantiles is the /v1/slo dimension (explicit
// zero document while empty, percentiles once observed) and ParseSLO reads
// back what a node writes, skipping keys that are not dimensions.
func TestSLORoundTrip(t *testing.T) {
	h := NewRegistry().Histogram("lion_test_latency_seconds", "", nil)
	if q := h.Quantiles(); q != (Quantiles{}) {
		t.Errorf("empty histogram = %+v, want the zero document", q)
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	q := h.Quantiles()
	// Each quantile is its nearest-rank value, at most one HDR bucket (1/32) above.
	if q.Count != 100 || q.P50 < 50 || q.P50 > 50*(1+1.0/32) || q.P95 < 95 || q.P95 > 95*(1+1.0/32) || q.P99 < 99 || q.P99 > 100 {
		t.Errorf("quantiles = %+v", q)
	}
	body, err := json.Marshal(map[string]any{
		"staleness_seconds":     q,
		"alert_latency_seconds": 1.5,
		"note":                  "not a dimension",
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ParseSLO(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Dims) != 1 || doc.Dims["staleness_seconds"] != q {
		t.Errorf("dims = %+v, want only staleness_seconds = %+v", doc.Dims, q)
	}
	if !doc.AlertSeen || doc.AlertLatency != 1.5 {
		t.Errorf("alert latency = %v (seen %v), want 1.5", doc.AlertLatency, doc.AlertSeen)
	}
	if _, err := ParseSLO([]byte("not json")); err == nil {
		t.Error("ParseSLO accepted a non-JSON body")
	}
}
