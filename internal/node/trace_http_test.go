package node

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/obs"
	"github.com/rfid-lion/lion/internal/wire"
)

// traceServer builds a full liond pipeline + server from flags, in-process
// (no listener — handlers run through httptest).
func traceServer(t *testing.T, args ...string) *server {
	t.Helper()
	cfg, err := parseFlags(append([]string{"-intervals", "0.1", "-every", "32", "-workers", "1"}, args...))
	if err != nil {
		t.Fatal(err)
	}
	eng, mon, ctrl, err := buildPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close(context.Background()) })
	return newServer(eng, mon, ctrl, cfg)
}

// TestTracedWireIngest posts a wire batch carrying the FlagTrace extension and
// follows the trace through the daemon: the ingest response surfaces the trace
// id, the span ring collects decode/enqueue/solve/publish spans served at
// /debug/pipespans, the staleness clock starts at the router's receive time,
// and /v1/slo summarises every latency dimension in the rollup schema.
func TestTracedWireIngest(t *testing.T) {
	s := traceServer(t)
	trace := smokeTrace(t)
	tagged := make([]dataset.TaggedSample, len(trace))
	for i, sm := range trace {
		tagged[i] = dataset.Tagged("T1", sm)
	}

	ext := wire.Ext{TraceID: 0xbeef, RouterRecvUnixNano: time.Now().Add(-40 * time.Millisecond).UnixNano()}
	body, err := wire.AppendFrames(nil, tagged, &ext)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/samples", bytes.NewReader(body))
	req.Header.Set("Content-Type", wire.ContentType)
	rec := httptest.NewRecorder()
	s.routes().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
	}
	var res struct {
		Accepted int    `json:"accepted"`
		TraceID  string `json:"trace_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != len(trace) || res.TraceID != "000000000000beef" {
		t.Fatalf("ingest result = %+v", res)
	}
	if err := s.eng.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The daemon recorded its own stages plus the engine's pipeline stages
	// under the router's trace id.
	stages := map[string]bool{}
	for _, sp := range s.spans.Spans(0xbeef) {
		stages[sp.Stage] = true
		if sp.Service != "liond" {
			t.Errorf("span service = %q", sp.Service)
		}
	}
	for _, want := range []string{"ingest_decode", "engine_enqueue", "queue_wait", "solve", "publish"} {
		if !stages[want] {
			t.Errorf("missing %q span; got %v", want, stages)
		}
	}

	// Staleness is measured from the wire extension's receive clock, so the
	// largest value must include the 40 ms the batch spent "upstream".
	stale, _ := s.eng.Registry().FindHistogram("lion_stream_staleness_seconds")
	if max, _ := stale.Quantile(100); max < 0.04 {
		t.Fatalf("staleness max %v, want >= 0.04", max)
	}

	rec = httptest.NewRecorder()
	s.routes().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pipespans?trace=000000000000beef", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/pipespans status %d", rec.Code)
	}
	for _, want := range []string{`"ingest_decode"`, `"solve"`, `"000000000000beef"`} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("pipespans export lacks %s:\n%s", want, rec.Body.String())
		}
	}
	rec = httptest.NewRecorder()
	s.routes().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pipespans?trace=zzz", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad trace filter: status %d, want 400", rec.Code)
	}

	rec = httptest.NewRecorder()
	s.routes().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/slo", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/slo status %d", rec.Code)
	}
	var doc map[string]obs.Quantiles
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, dim := range []string{"staleness_seconds", "queue_wait_seconds",
		"solve_latency_seconds", "publish_latency_seconds", "ingest_decode_seconds",
		"ingest_request_seconds"} {
		q, ok := doc[dim]
		if !ok || q.Count == 0 {
			t.Errorf("/v1/slo %s = %+v (present %v)", dim, q, ok)
		}
		if q.P50 > q.P99 {
			t.Errorf("/v1/slo %s quantiles inverted: %+v", dim, q)
		}
	}
	if _, ok := doc["alert_latency_seconds"]; ok {
		t.Error("/v1/slo reports alert latency with no fired alert")
	}

	// The staleness exemplar carries the trace id onto /metrics.
	rec = httptest.NewRecorder()
	s.routes().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), `trace_id="000000000000beef"`) {
		t.Error("metrics exposition lacks staleness exemplar")
	}
}

// TestLocalTraceSampling: without an upstream router, -trace-sample n=1 makes
// the daemon start its own traces on NDJSON ingest.
func TestLocalTraceSampling(t *testing.T) {
	s := traceServer(t, "-trace-sample", "1")
	trace := smokeTrace(t)
	tagged := make([]dataset.TaggedSample, len(trace))
	for i, sm := range trace {
		tagged[i] = dataset.Tagged("T1", sm)
	}
	var body bytes.Buffer
	if err := (dataset.NDJSON{}).Encode(&body, tagged); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/samples", &body)
	req.Header.Set("Content-Type", dataset.NDJSONContentType)
	rec := httptest.NewRecorder()
	s.routes().ServeHTTP(rec, req)
	var res struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	id, err := obs.ParseTraceID(res.TraceID)
	if err != nil || id == 0 {
		t.Fatalf("locally sampled ingest returned trace id %q (%v)", res.TraceID, err)
	}
	if err := s.eng.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := s.spans.Spans(id); len(got) == 0 {
		t.Error("no spans recorded for locally sampled trace")
	}
}
