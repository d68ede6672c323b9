package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"github.com/rfid-lion/lion/internal/node"
	"github.com/rfid-lion/lion/internal/obs"
)

// Routes builds the router's HTTP mux:
//
//	POST /v1/samples               ingest (NDJSON or binary wire frames)
//	GET  /v1/tags                  union of tag ids across live shards
//	GET  /v1/tags/{id}/estimate    proxied to the owning shard
//	GET  /v1/tags/{id}/explain     proxied to the owning shard
//	GET  /v1/alerts                per-shard alert documents
//	GET  /v1/cluster               shard states and queue depths
//	GET  /v1/slo                   per-shard SLO documents + cluster rollup
//	GET  /v1/trace/{id}            assembled cross-process pipeline trace
//	GET  /debug/pipespans          router span log as NDJSON (?trace=<hex>)
//	GET  /healthz                  router liveness
//	GET  /readyz                   503 until at least one shard takes ingest
//	GET  /metrics                  lion_cluster_* Prometheus exposition
func (rt *Router) Routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/samples", rt.handleIngest)
	mux.HandleFunc("GET /v1/tags", rt.handleTags)
	mux.HandleFunc("GET /v1/tags/{id}/estimate", rt.handleTag("estimate"))
	mux.HandleFunc("GET /v1/tags/{id}/explain", rt.handleTag("explain"))
	mux.HandleFunc("GET /v1/alerts", rt.handleAlerts)
	mux.HandleFunc("GET /v1/cluster", rt.handleCluster)
	mux.HandleFunc("GET /v1/slo", rt.handleSLO)
	mux.HandleFunc("GET /v1/trace/{id}", rt.handleTrace)
	mux.Handle("GET /debug/pipespans", rt.spans)
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	mux.HandleFunc("GET /readyz", rt.handleReady)
	mux.Handle("GET /metrics", rt.reg.Handler())
	return mux
}

func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	recv := time.Now()
	// Full request wall time at the router: the server-side twin of a load
	// generator's client-observed ingest latency against a cluster.
	defer func() { rt.ingestReq.Observe(time.Since(recv).Seconds()) }()
	// A client's trace extension is ignored: the router's sampler decides.
	samples, _, err := node.DecodeIngest(w, r)
	decodeTook := time.Since(recv)
	if err != nil {
		obs.WriteError(w, http.StatusBadRequest, err)
		return
	}
	tc := rt.sampler.Next()
	rt.ingestDecode.ObserveExemplar(decodeTook.Seconds(), tc)
	rt.spans.Record(tc, "ingest_decode", "", recv, decodeTook)
	res, err := rt.Ingest(samples, tc, recv)
	if err != nil {
		obs.WriteError(w, http.StatusServiceUnavailable, err)
		return
	}
	obs.WriteJSON(w, http.StatusOK, res)
}

// handleTag proxies one per-tag read, /v1/tags/{id}/<view>, to the shard
// owning the tag.
func (rt *Router) handleTag(view string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tag := r.PathValue("id")
		s := rt.shards[rt.ring.Owner(tag)]
		if s.State() == ShardEjected {
			obs.WriteError(w, http.StatusServiceUnavailable,
				fmt.Errorf("shard %s owning tag %q is ejected", s.id, tag))
			return
		}
		rt.proxy(w, s, "/v1/tags/"+url.PathEscape(tag)+"/"+view)
	}
}

// proxy forwards one GET to a shard and relays status, content type, and
// body verbatim.
func (rt *Router) proxy(w http.ResponseWriter, s *shard, path string) {
	resp, err := rt.client.Get(s.base + path)
	if err != nil {
		obs.WriteError(w, http.StatusBadGateway, fmt.Errorf("shard %s: %w", s.id, err))
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// fanOut GETs a JSON endpoint from every shard concurrently and returns each
// shard's document keyed by shard id. An {"error": ...} document stands in
// for a shard that is ejected, fails, or answers with something not JSON.
func (rt *Router) fanOut(path string) map[string]json.RawMessage {
	bodies, errs := rt.fanOutRaw(path)
	out := make(map[string]json.RawMessage, len(rt.shards))
	for id, body := range bodies {
		if !json.Valid(body) {
			errs[id] = errors.New("shard returned non-JSON body")
			continue
		}
		out[id] = body
	}
	for id, err := range errs {
		out[id] = errJSON(err)
	}
	return out
}

// fanOutRaw issues one GET per non-ejected shard concurrently and returns,
// keyed by shard id, each 200 body verbatim and the error of every shard that
// is ejected or did not answer 200.
func (rt *Router) fanOutRaw(path string) (map[string][]byte, map[string]error) {
	bodies := make(map[string][]byte, len(rt.shards))
	errs := make(map[string]error)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, s := range rt.shards {
		if s.State() == ShardEjected {
			errs[s.id] = errors.New("shard ejected")
			continue
		}
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			body, err := rt.get(s, path)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs[s.id] = err
			} else {
				bodies[s.id] = body
			}
		}(s)
	}
	wg.Wait()
	return bodies, errs
}

// get fetches one shard endpoint, insisting on a 200 answer.
func (rt *Router) get(s *shard, path string) ([]byte, error) {
	resp, err := rt.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, node.MaxBody))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

func errJSON(err error) json.RawMessage {
	b, _ := json.Marshal(map[string]string{"error": err.Error()})
	return b
}

func (rt *Router) handleTags(w http.ResponseWriter, r *http.Request) {
	merged := make(map[string]bool)
	for _, body := range rt.fanOut("/v1/tags") {
		var doc struct {
			Tags []string `json:"tags"`
		}
		if json.Unmarshal(body, &doc) == nil {
			for _, t := range doc.Tags {
				merged[t] = true
			}
		}
	}
	tags := make([]string, 0, len(merged))
	for t := range merged {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	obs.WriteJSON(w, http.StatusOK, map[string][]string{"tags": tags})
}

func (rt *Router) handleAlerts(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, map[string]any{"shards": rt.fanOut("/v1/alerts")})
}

func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, map[string]any{"shards": rt.Status()})
}

// handleSLO fans /v1/slo out to the live shards and rolls the answers up into
// a cluster-wide worst-case view: for every latency dimension the rollup
// quantile is the maximum across shards (an SLO holds for the cluster only if
// it holds for its slowest shard) and counts are summed exactly. Shards whose
// window for a dimension is still empty (count 0) contribute the dimension's
// presence but not its quantiles, so an idle shard never drags a rollup
// toward zero and a dimension no shard has observed still appears with an
// explicit zero count. alert_latency_seconds rolls up as the maximum reported
// by any shard. The router's own ingest request histogram is merged into
// ingest_request_seconds the same worst-case way: a cluster's ingest SLO is
// bounded by whichever hop — router or slowest shard — is slower.
func (rt *Router) handleSLO(w http.ResponseWriter, r *http.Request) {
	shards := rt.fanOut("/v1/slo")
	agg := make(map[string]*obs.Quantiles)
	merge := func(key string, q obs.Quantiles) {
		a := agg[key]
		if a == nil {
			a = &obs.Quantiles{}
			agg[key] = a
		}
		if q.Count == 0 {
			return
		}
		a.P50 = math.Max(a.P50, q.P50)
		a.P95 = math.Max(a.P95, q.P95)
		a.P99 = math.Max(a.P99, q.P99)
		a.Count += q.Count
	}
	var alertMax float64
	alertSeen := false
	for _, body := range shards {
		doc, err := obs.ParseSLO(body)
		if err != nil {
			continue
		}
		for key, q := range doc.Dims {
			merge(key, q)
		}
		if doc.AlertSeen && (!alertSeen || doc.AlertLatency > alertMax) {
			alertMax, alertSeen = doc.AlertLatency, true
		}
	}
	merge("ingest_request_seconds", rt.ingestReq.Quantiles())
	cluster := make(map[string]any, len(agg)+1)
	for key, q := range agg {
		cluster[key] = q
	}
	if alertSeen {
		cluster["alert_latency_seconds"] = alertMax
	}
	obs.WriteJSON(w, http.StatusOK, map[string]any{"shards": shards, "cluster": cluster})
}

// handleTrace assembles one cross-process pipeline trace: the router's own
// spans plus every live shard's spans for the id, merged and sorted on the
// shared absolute-time axis (span start). The id is the 16-digit hex trace id
// returned by POST /v1/samples.
func (rt *Router) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, err := obs.ParseTraceID(r.PathValue("id"))
	if err != nil {
		obs.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad trace id: %w", err))
		return
	}
	spans := rt.spans.Spans(id)
	// Trace assembly is best-effort: a shard that fails adds no spans.
	bodies, _ := rt.fanOutRaw("/debug/pipespans?trace=" + obs.TraceIDString(id))
	for _, body := range bodies {
		sc := bufio.NewScanner(bytes.NewReader(body))
		for sc.Scan() {
			var sp obs.PipeSpan
			if json.Unmarshal(sc.Bytes(), &sp) == nil && sp.TraceID == id {
				spans = append(spans, sp)
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Service < spans[j].Service
	})
	obs.WriteJSON(w, http.StatusOK, map[string]any{
		"trace_id": obs.TraceIDString(id),
		"spans":    spans,
	})
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	if rt.closed.Load() {
		obs.WriteJSON(w, http.StatusServiceUnavailable, node.Readiness{Status: node.StatusDraining})
		return
	}
	if !rt.Ready() {
		obs.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no-healthy-shards"})
		return
	}
	obs.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
