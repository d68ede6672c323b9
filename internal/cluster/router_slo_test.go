package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/rfid-lion/lion/internal/obs"
)

// sloShard serves a fixed /v1/slo document and accepts forwarded ingest.
func sloShard(t *testing.T, doc string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/slo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, doc)
	})
	mux.HandleFunc("POST /v1/samples", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"accepted":1,"dropped":0}`)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func sloRouter(t *testing.T, shards ...*httptest.Server) *Router {
	t.Helper()
	cfgs := make([]ShardConfig, len(shards))
	for i, s := range shards {
		cfgs[i] = ShardConfig{ID: fmt.Sprintf("s%d", i+1), URL: s.URL}
	}
	rt, err := New(Config{Shards: cfgs, HealthInterval: Duration(-1)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close(context.Background()) })
	return rt
}

func clusterSLO(t *testing.T, rt *Router) map[string]json.RawMessage {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.Routes().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/slo", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/slo status %d", rec.Code)
	}
	var doc struct {
		Cluster map[string]json.RawMessage `json:"cluster"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Cluster
}

func dim(t *testing.T, doc map[string]json.RawMessage, key string) obs.Quantiles {
	t.Helper()
	raw, ok := doc[key]
	if !ok {
		t.Fatalf("cluster rollup missing %s (have %v)", key, keysOf(doc))
	}
	var q obs.Quantiles
	if err := json.Unmarshal(raw, &q); err != nil {
		t.Fatalf("%s does not parse: %v", key, err)
	}
	return q
}

func keysOf(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestRouterSLORollupShardAsymmetry: with one fast busy shard and one slow
// quiet shard, the cluster quantiles must come from the slow shard (an SLO
// holds for the cluster only if its slowest shard holds it) while the counts
// stay the exact sum — the fast shard's volume must not dilute the worst
// case, and the slow shard's low volume must not hide it.
func TestRouterSLORollupShardAsymmetry(t *testing.T) {
	fastBusy := sloShard(t, `{
		"staleness_seconds":{"p50":0.001,"p95":0.002,"p99":0.005,"count":100000},
		"queue_wait_seconds":{"p50":0.0001,"p95":0.0002,"p99":0.0004,"count":100000}}`)
	slowQuiet := sloShard(t, `{
		"staleness_seconds":{"p50":0.5,"p95":2.0,"p99":4.0,"count":37},
		"queue_wait_seconds":{"p50":0.1,"p95":0.3,"p99":0.9,"count":37}}`)
	rt := sloRouter(t, fastBusy, slowQuiet)
	doc := clusterSLO(t, rt)

	st := dim(t, doc, "staleness_seconds")
	if st.P50 != 0.5 || st.P95 != 2.0 || st.P99 != 4.0 {
		t.Errorf("staleness rollup %+v: slow shard must dominate every quantile", st)
	}
	if st.Count != 100037 {
		t.Errorf("staleness count %d, want the exact sum 100037", st.Count)
	}
	qw := dim(t, doc, "queue_wait_seconds")
	if qw.P99 != 0.9 || qw.Count != 100037 {
		t.Errorf("queue_wait rollup %+v", qw)
	}
}

// TestRouterSLORollupExplicitZeroCounts: shards reporting a dimension with an
// explicit zero count (the post-fix idle form) keep the dimension visible in
// the rollup as an explicit zero, and an idle shard's zeros never drag a busy
// shard's quantiles down.
func TestRouterSLORollupExplicitZeroCounts(t *testing.T) {
	idle := sloShard(t, `{
		"staleness_seconds":{"p50":0,"p95":0,"p99":0,"count":0},
		"solve_latency_seconds":{"p50":0,"p95":0,"p99":0,"count":0}}`)
	busy := sloShard(t, `{
		"staleness_seconds":{"p50":0.2,"p95":0.4,"p99":0.8,"count":500},
		"solve_latency_seconds":{"p50":0,"p95":0,"p99":0,"count":0}}`)
	rt := sloRouter(t, idle, busy)
	doc := clusterSLO(t, rt)

	st := dim(t, doc, "staleness_seconds")
	if st.P99 != 0.8 || st.Count != 500 {
		t.Errorf("idle shard corrupted the staleness rollup: %+v", st)
	}
	// A dimension every shard is idle on still appears, explicitly zero.
	sl := dim(t, doc, "solve_latency_seconds")
	if sl.Count != 0 || sl.P50 != 0 || sl.P99 != 0 {
		t.Errorf("all-idle dimension = %+v, want explicit zeros", sl)
	}
}

// TestRouterSLOOwnIngestRequest: the router merges its own POST /v1/samples
// wall-time histogram into the cluster's ingest_request_seconds — present as
// an explicit zero before any ingest, populated after.
func TestRouterSLOOwnIngestRequest(t *testing.T) {
	shard := sloShard(t, `{}`)
	rt := sloRouter(t, shard)

	if q := dim(t, clusterSLO(t, rt), "ingest_request_seconds"); q.Count != 0 {
		t.Fatalf("pre-ingest ingest_request_seconds = %+v, want zero count", q)
	}

	for i := 0; i < 5; i++ {
		body := strings.NewReader(`{"tag":"T1","time_s":1,"x_m":0,"y_m":0,"z_m":0,"phase_rad":1}`)
		req := httptest.NewRequest("POST", "/v1/samples", body)
		rec := httptest.NewRecorder()
		rt.Routes().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
		}
	}
	q := dim(t, clusterSLO(t, rt), "ingest_request_seconds")
	if q.Count != 5 {
		t.Fatalf("ingest_request_seconds count %d after 5 posts", q.Count)
	}
	if q.P99 < q.P50 || q.P99 <= 0 {
		t.Fatalf("ingest_request_seconds quantiles %+v", q)
	}
}
