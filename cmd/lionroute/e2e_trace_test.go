package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/wire"
)

// postTraced posts one wire batch through the router and returns the trace id
// the sampler assigned to the request.
func postTraced(t *testing.T, base string, batch []dataset.TaggedSample) string {
	t.Helper()
	var buf bytes.Buffer
	if err := (wire.Codec{}).Encode(&buf, batch); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/samples", wire.ContentType, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res struct {
		Accepted int    `json:"accepted"`
		TraceID  string `json:"trace_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || res.Accepted != len(batch) {
		t.Fatalf("traced ingest: status %d accepted %d/%d", resp.StatusCode, res.Accepted, len(batch))
	}
	if res.TraceID == "" {
		t.Fatal("-trace-sample 1 ingest returned no trace id")
	}
	return res.TraceID
}

// traceDoc is the /v1/trace/{id} response shape these tests consume.
type traceDoc struct {
	TraceID string `json:"trace_id"`
	Spans   []struct {
		Service string `json:"service"`
		Stage   string `json:"stage"`
		Start   int64  `json:"start_unix_ns"`
		Dur     int64  `json:"duration_ns"`
	} `json:"spans"`
}

// TestPipelineTraceE2E proves the tracing contract across real process
// boundaries: a router started with -trace-sample 1 samples an ingest batch,
// forwards it in wire frames carrying the trace extension, and
// GET /v1/trace/{id} then assembles one trace whose spans come from BOTH
// services — the router's decode/queue/forward stages and the shard's
// decode/enqueue/solve/publish stages — on a single absolute time axis.
func TestPipelineTraceE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	liond, lionroute := binaries(t)
	shards := []*proc{
		startProc(t, liond, shardFlags...),
		startProc(t, liond, shardFlags...),
	}
	for _, p := range shards {
		waitReady(t, p.base())
	}
	router := startProc(t, lionroute,
		"-addr", "127.0.0.1:0", "-config", writeClusterConfig(t, shards), "-trace-sample", "1")
	waitReady(t, router.base())

	// The shard-side solve spans land only once the batch's solves
	// publish — so keep feeding sampled batches (fresh tag each pass,
	// 64-sample chunks to cross the -every 32 solve cadence) until one
	// trace assembles end to end.
	wantShard := map[string]bool{
		"ingest_decode": true, "engine_enqueue": true,
		"queue_wait": true, "solve": true, "publish": true,
	}
	var full traceDoc
	deadline := time.Now().Add(30 * time.Second)
	found := false
	for pass := 0; !found; pass++ {
		if time.Now().After(deadline) {
			t.Fatalf("no end-to-end trace assembled; last doc %+v", full)
		}
		trace := tagTrace(t, fmt.Sprintf("TRACE-%d", pass), int64(42+pass))
		for i := 0; i+64 <= len(trace) && !found; i += 64 {
			id := postTraced(t, router.base(), trace[i:i+64])
			waitQueuesDrained(t, router.base())
			poll := time.Now().Add(2 * time.Second)
			for time.Now().Before(poll) {
				var doc traceDoc
				if getJSON(t, router.base()+"/v1/trace/"+id, &doc) == http.StatusOK {
					got := map[string]bool{}
					for _, sp := range doc.Spans {
						if sp.Service == "liond" {
							got[sp.Stage] = true
						}
					}
					done := true
					for stage := range wantShard {
						done = done && got[stage]
					}
					if done {
						full, found = doc, true
						break
					}
					full = doc
				}
				time.Sleep(25 * time.Millisecond)
			}
		}
	}

	// The assembled trace spans both processes, in pipeline order on the
	// shared clock.
	services := map[string]map[string]bool{}
	for i, sp := range full.Spans {
		if services[sp.Service] == nil {
			services[sp.Service] = map[string]bool{}
		}
		services[sp.Service][sp.Stage] = true
		if i > 0 && sp.Start < full.Spans[i-1].Start {
			t.Errorf("spans not sorted on the shared time axis: %+v", full.Spans)
		}
		if sp.Dur < 0 {
			t.Errorf("negative span duration: %+v", sp)
		}
	}
	for _, stage := range []string{"ingest_decode", "queue_wait", "forward"} {
		if !services["lionroute"][stage] {
			t.Errorf("router side missing %q span: %v", stage, services["lionroute"])
		}
	}
	for stage := range wantShard {
		if !services["liond"][stage] {
			t.Errorf("shard side missing %q span: %v", stage, services["liond"])
		}
	}

	// The cluster SLO rollup reflects the traffic: staleness and solve
	// latency dimensions carry observations from the shards.
	var slo struct {
		Cluster map[string]json.RawMessage `json:"cluster"`
	}
	if getJSON(t, router.base()+"/v1/slo", &slo) != http.StatusOK {
		t.Fatal("/v1/slo unavailable")
	}
	for _, dim := range []string{"staleness_seconds", "solve_latency_seconds", "queue_wait_seconds"} {
		var q struct {
			P50   float64 `json:"p50"`
			Count uint64  `json:"count"`
		}
		if raw, ok := slo.Cluster[dim]; !ok || json.Unmarshal(raw, &q) != nil || q.Count == 0 {
			t.Errorf("cluster SLO rollup missing %s: %s", dim, slo.Cluster[dim])
		}
	}

	// At least one shard exposes the trace id as a staleness exemplar.
	sawExemplar := false
	for _, p := range shards {
		resp, err := http.Get(p.base() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(body), `trace_id="`+full.TraceID+`"`) {
			sawExemplar = true
		}
	}
	if !sawExemplar {
		t.Error("no shard exposition carries the trace exemplar")
	}

	stopProc(t, router)
	for _, p := range shards {
		stopProc(t, p)
	}
}
