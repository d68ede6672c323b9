package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/obs"
)

// drain polls until the shard received at least n samples or the deadline
// passes — forwards happen on background goroutines.
func drain(t *testing.T, f *fakeShard, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(f.got()) >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("shard received %d of %d samples before deadline", len(f.got()), n)
}

// TestRouterTracedForwardCarriesExt: a sampled batch arrives at every shard
// it touches in a flagged wire frame carrying the trace id and router
// receive clock; an unsampled batch arrives plain.
func TestRouterTracedForwardCarriesExt(t *testing.T) {
	a, b := newFakeShard(t), newFakeShard(t)
	rt := noHealth(t, a, b, nil)
	defer rt.Close(context.Background())
	rt.spans = obs.NewSpanLog("lionroute", 64)

	// One tag per shard so each group lands deterministically.
	var s1Tag, s2Tag string
	for i := 0; s1Tag == "" || s2Tag == ""; i++ {
		tag := fmt.Sprintf("T%d", i)
		if rt.Owner(tag) == "s1" {
			s1Tag = tag
		} else {
			s2Tag = tag
		}
	}

	tc := obs.TraceContext{ID: 0xabc123, Sampled: true}
	recv := time.Now().Add(-10 * time.Millisecond)
	res, err := rt.Ingest([]dataset.TaggedSample{sampleFor(s1Tag, 0), sampleFor(s2Tag, 1)}, tc, recv)
	if err != nil || res.Accepted != 2 {
		t.Fatalf("ingest: %+v err %v", res, err)
	}
	if res.TraceID != "0000000000abc123" {
		t.Fatalf("result trace id = %q", res.TraceID)
	}
	drain(t, a, 1)
	drain(t, b, 1)

	for name, f := range map[string]*fakeShard{"s1": a, "s2": b} {
		f.mu.Lock()
		ext := f.exts[0]
		f.mu.Unlock()
		if ext == nil || ext.TraceID != tc.ID || ext.RouterRecvUnixNano != recv.UnixNano() {
			t.Errorf("%s ext = %+v, want id %x recv %d", name, ext, tc.ID, recv.UnixNano())
		}
	}

	// Unsampled ingest arrives plain.
	if _, err := rt.Ingest([]dataset.TaggedSample{sampleFor(s1Tag, 2)}, obs.TraceContext{}, time.Time{}); err != nil {
		t.Fatal(err)
	}
	drain(t, a, 2)
	a.mu.Lock()
	extPlain := a.exts[len(a.exts)-1]
	a.mu.Unlock()
	if extPlain != nil {
		t.Errorf("unsampled batch carried ext %+v", extPlain)
	}

	// The router recorded queue-wait and forward spans for the trace, and
	// /v1/trace/{id} serves them sorted by start.
	spans := rt.spans.Spans(tc.ID)
	stages := map[string]bool{}
	for _, sp := range spans {
		stages[sp.Stage] = true
		if sp.Service != "lionroute" {
			t.Errorf("span service = %q", sp.Service)
		}
	}
	if !stages["queue_wait"] || !stages["forward"] {
		t.Fatalf("router spans missing stages: %+v", spans)
	}
	rec := httptest.NewRecorder()
	rt.Routes().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/trace/0000000000abc123", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/trace status %d: %s", rec.Code, rec.Body.String())
	}
	var doc struct {
		TraceID string         `json:"trace_id"`
		Spans   []obs.PipeSpan `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.TraceID != "0000000000abc123" || len(doc.Spans) < 2 {
		t.Fatalf("trace doc = %+v", doc)
	}
	for i := 1; i < len(doc.Spans); i++ {
		if doc.Spans[i].Start < doc.Spans[i-1].Start {
			t.Errorf("spans not sorted by start: %+v", doc.Spans)
		}
	}

	// /debug/pipespans exports the same spans as NDJSON.
	rec = httptest.NewRecorder()
	rt.Routes().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pipespans?trace=0000000000abc123", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"queue_wait"`) {
		t.Errorf("/debug/pipespans: %d %q", rec.Code, rec.Body.String())
	}

	// The forward-latency exemplar surfaces the trace id on /metrics.
	rec = httptest.NewRecorder()
	rt.Routes().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), `trace_id="0000000000abc123"`) {
		t.Error("metrics exposition lacks forward exemplar")
	}
}

// TestRouterUntracedZeroAllocs is the cluster layer's piece of the zero-alloc
// constraint: the per-batch tracing decision — sampler step, extension
// choice, exemplar observes, span no-ops — allocates nothing when the batch
// is unsampled.
func TestRouterUntracedZeroAllocs(t *testing.T) {
	a, b := newFakeShard(t), newFakeShard(t)
	rt := noHealth(t, a, b, nil)
	defer rt.Close(context.Background())
	rt.spans = obs.NewSpanLog("lionroute", 64)
	s := rt.shards[0]

	sampler := obs.NewSampler(1<<30, 3) // samples once, then never again
	sampler.Next()
	recv := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		tc := sampler.Next()
		if tc.Sampled {
			t.Fatal("sampler unexpectedly sampled")
		}
		if ext := rt.traceExt(tc, recv); ext != nil {
			t.Fatal("unsampled batch got a wire extension")
		}
		rt.ingestDecode.ObserveExemplar(1e-4, tc)
		rt.queueWait.ObserveExemplar(1e-3, tc)
		if tc.Sampled && rt.spans != nil {
			rt.spans.Record(tc, "queue_wait", s.id, recv, 0)
		}
	})
	if allocs != 0 {
		t.Errorf("untraced decision path allocated %.1f times per run, want 0", allocs)
	}
}

// TestRouterSLORollup: /v1/slo merges shard SLO documents into a worst-case
// cluster view — max per quantile, summed counts, max alert latency.
func TestRouterSLORollup(t *testing.T) {
	newSrv := func(doc string) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/slo", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, doc)
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv
	}
	s1 := newSrv(`{"staleness_seconds":{"p50":0.01,"p95":0.05,"p99":0.2,"count":100},"alert_latency_seconds":1.5}`)
	s2 := newSrv(`{"staleness_seconds":{"p50":0.02,"p95":0.04,"p99":0.1,"count":50}}`)
	rt, err := New(Config{
		Shards: []ShardConfig{
			{ID: "s1", URL: s1.URL},
			{ID: "s2", URL: s2.URL},
		},
		healthInterval: -1,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close(context.Background())

	rec := httptest.NewRecorder()
	rt.Routes().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/slo", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/slo status %d", rec.Code)
	}
	var doc struct {
		Shards  map[string]json.RawMessage `json:"shards"`
		Cluster struct {
			Staleness    obs.Quantiles `json:"staleness_seconds"`
			AlertLatency float64       `json:"alert_latency_seconds"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Shards) != 2 {
		t.Fatalf("shards = %v", doc.Shards)
	}
	c := doc.Cluster.Staleness
	if c.P50 != 0.02 || c.P95 != 0.05 || c.P99 != 0.2 || c.Count != 150 {
		t.Errorf("cluster staleness rollup = %+v", c)
	}
	if doc.Cluster.AlertLatency != 1.5 {
		t.Errorf("cluster alert latency = %g", doc.Cluster.AlertLatency)
	}
}
