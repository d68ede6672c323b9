package node

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"

	"github.com/rfid-lion/lion/internal/obs"
)

// getSLO fetches and parses /v1/slo from an in-process server.
func getSLO(t *testing.T, s *server) map[string]json.RawMessage {
	t.Helper()
	rec := httptest.NewRecorder()
	s.routes().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/slo", nil))
	if rec.Code != 200 {
		t.Fatalf("/v1/slo status %d: %s", rec.Code, rec.Body.String())
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestSLOEmptyWindowsExplicitZero: a daemon that has ingested nothing reports
// every dimension with an explicit zero count and zero quantiles — never
// omitted, never NaN, never whatever an empty window would interpolate.
func TestSLOEmptyWindowsExplicitZero(t *testing.T) {
	s := traceServer(t)
	doc := getSLO(t, s)
	for _, dim := range sloDimensions {
		raw, ok := doc[dim.key]
		if !ok {
			t.Errorf("idle /v1/slo omits %s, want explicit zero document", dim.key)
			continue
		}
		var q obs.Quantiles
		if err := json.Unmarshal(raw, &q); err != nil {
			t.Errorf("%s does not parse: %v (%s)", dim.key, err, raw)
			continue
		}
		if q.Count != 0 || q.P50 != 0 || q.P95 != 0 || q.P99 != 0 {
			t.Errorf("idle %s = %+v, want all-zero", dim.key, q)
		}
	}
	if _, ok := doc["alert_latency_seconds"]; ok {
		t.Error("idle /v1/slo reports an alert latency")
	}
}

// TestSLOQuantilesArePercentiles feeds a known distribution into the ingest
// request histogram and checks /v1/slo reports the actual upper quantiles.
// This is the regression test for the percentile-argument bug where
// Quantile(0.95) — a fraction handed to a [0,100]-percentile API — reported
// roughly the p1 of every dimension.
func TestSLOQuantilesArePercentiles(t *testing.T) {
	s := traceServer(t)
	h, ok := s.eng.Registry().FindHistogram("lion_http_ingest_seconds")
	if !ok {
		t.Fatal("lion_http_ingest_seconds not registered")
	}
	// 1ms..100ms uniform: p50 ~ 50ms, p95 ~ 95ms, p99 ~ 99ms.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 1000)
	}
	doc := getSLO(t, s)
	var q obs.Quantiles
	if err := json.Unmarshal(doc["ingest_request_seconds"], &q); err != nil {
		t.Fatalf("ingest_request_seconds missing: %v", err)
	}
	if q.Count != 100 {
		t.Fatalf("count = %d, want 100", q.Count)
	}
	check := func(name string, got, want float64) {
		if math.Abs(got-want) > 0.005 {
			t.Errorf("%s = %.4fs, want ~%.3fs", name, got, want)
		}
	}
	check("p50", q.P50, 0.050)
	check("p95", q.P95, 0.095)
	check("p99", q.P99, 0.099)
	if q.P95 <= q.P50 || q.P99 < q.P95 {
		t.Errorf("quantiles not ordered: %+v", q)
	}
}
