package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/node"
	"github.com/rfid-lion/lion/internal/obs"
	"github.com/rfid-lion/lion/internal/wire"
)

// fakeShard is an httptest stand-in for one liond: it decodes wire-frame
// ingest bodies in arrival order (anything else is refused, since the
// router forwards nothing else) and serves a scriptable /readyz.
type fakeShard struct {
	srv *httptest.Server

	mu      sync.Mutex
	samples []dataset.TaggedSample
	exts    []*wire.Ext                 // trace extension per ingest POST (nil = plain)
	ready   func(w http.ResponseWriter) // nil = 200 ok
	block   chan struct{}               // non-nil: ingest waits on it
}

func newFakeShard(t *testing.T) *fakeShard {
	t.Helper()
	f := &fakeShard{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/samples", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		block := f.block
		f.mu.Unlock()
		if block != nil {
			<-block
		}
		if ct := r.Header.Get("Content-Type"); ct != wire.ContentType {
			http.Error(w, "want wire frames, got "+ct, http.StatusUnsupportedMediaType)
			return
		}
		samples, ext, err := wire.DecodeIngestExt(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		f.samples = append(f.samples, samples...)
		f.exts = append(f.exts, ext)
		f.mu.Unlock()
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		ready := f.ready
		f.mu.Unlock()
		if ready != nil {
			ready(w)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /v1/tags/{id}/{view}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"tag":%q,"view":%q,"served_by":"fake"}`, r.PathValue("id"), r.PathValue("view"))
	})
	mux.HandleFunc("GET /v1/tags", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		seen := map[string]bool{}
		var tags []string
		for _, s := range f.samples {
			if !seen[s.Tag] {
				seen[s.Tag] = true
				tags = append(tags, s.Tag)
			}
		}
		f.mu.Unlock()
		obs.WriteJSON(w, http.StatusOK, map[string][]string{"tags": tags})
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeShard) setReady(fn func(w http.ResponseWriter)) {
	f.mu.Lock()
	f.ready = fn
	f.mu.Unlock()
}

func (f *fakeShard) got() []dataset.TaggedSample {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]dataset.TaggedSample(nil), f.samples...)
}

// encodeWire renders a batch as wire frames for HTTP ingest tests.
func encodeWire(t *testing.T, samples []dataset.TaggedSample) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := (wire.Codec{}).Encode(&buf, samples); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func sampleFor(tag string, i int) dataset.TaggedSample {
	return dataset.TaggedSample{
		Tag: tag, TimeS: float64(i) * 0.01,
		X: 0.1, Y: 0.2, Z: 0.3, Phase: float64(i%628) / 100, RSSI: -55,
		Segment: i / 10, Channel: i % 16,
	}
}

// noHealth builds a 2-shard router with health checking disabled so tests
// control shard state directly.
func noHealth(t *testing.T, a, b *fakeShard, tune func(*Config)) *Router {
	t.Helper()
	cfg := Config{
		Shards: []ShardConfig{
			{ID: "s1", URL: a.srv.URL},
			{ID: "s2", URL: b.srv.URL},
		},
		healthInterval: -1,
	}
	if tune != nil {
		tune(&cfg)
	}
	rt, err := New(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestRouterPartitionsByOwnerInOrder(t *testing.T) {
	a, b := newFakeShard(t), newFakeShard(t)
	rt := noHealth(t, a, b, nil)

	var batch []dataset.TaggedSample
	for i := 0; i < 200; i++ {
		batch = append(batch, sampleFor(fmt.Sprintf("TAG-%02d", i%7), i))
	}
	res, err := rt.Ingest(batch, obs.TraceContext{}, time.Time{})
	if err != nil || res.Accepted != len(batch) || res.Rejected != 0 {
		t.Fatalf("Ingest = %+v, %v", res, err)
	}
	if err := rt.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Every sample must land on its ring owner, preserving per-tag order.
	want := map[string][]dataset.TaggedSample{}
	for _, ts := range batch {
		want[rt.Owner(ts.Tag)] = append(want[rt.Owner(ts.Tag)], ts)
	}
	for id, f := range map[string]*fakeShard{"s1": a, "s2": b} {
		got := f.got()
		if len(got) != len(want[id]) {
			t.Fatalf("shard %s got %d samples, want %d", id, len(got), len(want[id]))
		}
		for i := range got {
			if got[i] != want[id][i] {
				t.Fatalf("shard %s sample %d = %+v, want %+v", id, i, got[i], want[id][i])
			}
		}
	}
	if got := rt.forwarded.Value(); got != uint64(len(batch)) {
		t.Errorf("forwarded counter = %d, want %d", got, len(batch))
	}
}

func TestRouterQueueFullRejects(t *testing.T) {
	a, b := newFakeShard(t), newFakeShard(t)
	block := make(chan struct{})
	a.block = block
	b.block = block
	rt := noHealth(t, a, b, func(c *Config) { c.queueSamples = 50 })
	defer func() {
		close(block)
		rt.Close(context.Background())
	}()

	// One hot tag pins every sample to a single shard, so the second batch
	// must overflow that shard's 50-sample bound while its POST is blocked.
	batch := make([]dataset.TaggedSample, 40)
	for i := range batch {
		batch[i] = sampleFor("HOT", i)
	}
	if res, err := rt.Ingest(batch, obs.TraceContext{}, time.Time{}); err != nil || res.Rejected != 0 {
		t.Fatalf("first batch: %+v, %v", res, err)
	}
	res, err := rt.Ingest(batch, obs.TraceContext{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != len(batch) {
		t.Fatalf("second batch should be rejected whole: %+v", res)
	}
	if rt.rejQueueFull.Value() != uint64(res.Rejected) {
		t.Errorf("queue_full counter = %d, want %d", rt.rejQueueFull.Value(), res.Rejected)
	}
}

func TestRouterDrainingShardIsQueryOnly(t *testing.T) {
	a, b := newFakeShard(t), newFakeShard(t)
	rt := noHealth(t, a, b, nil)
	defer rt.Close(context.Background())

	rt.shards[0].setState(ShardDraining)
	batch := make([]dataset.TaggedSample, 60)
	for i := range batch {
		batch[i] = sampleFor(fmt.Sprintf("T%d", i), i)
	}
	toS1 := 0
	for _, ts := range batch {
		if rt.Owner(ts.Tag) == "s1" {
			toS1++
		}
	}
	if toS1 == 0 || toS1 == len(batch) {
		t.Fatalf("degenerate split: %d/%d to s1", toS1, len(batch))
	}
	res, err := rt.Ingest(batch, obs.TraceContext{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != toS1 || res.Accepted != len(batch)-toS1 {
		t.Errorf("res = %+v, want rejected=%d", res, toS1)
	}
	if rt.rejDraining.Value() != uint64(toS1) {
		t.Errorf("draining counter = %d, want %d", rt.rejDraining.Value(), toS1)
	}

	// Queries to the draining shard still work.
	var s1Tag string
	for i := 0; ; i++ {
		if tag := fmt.Sprintf("T%d", i); rt.Owner(tag) == "s1" {
			s1Tag = tag
			break
		}
	}
	rec := httptest.NewRecorder()
	rt.Routes().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/tags/"+s1Tag+"/estimate", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("estimate on draining shard: status %d, body %s", rec.Code, rec.Body)
	}
}

func TestRouterEjectedShardFailsFast(t *testing.T) {
	a, b := newFakeShard(t), newFakeShard(t)
	rt := noHealth(t, a, b, nil)
	defer rt.Close(context.Background())

	rt.shards[1].setState(ShardEjected)
	var s2Tag string
	for i := 0; ; i++ {
		if tag := fmt.Sprintf("T%d", i); rt.Owner(tag) == "s2" {
			s2Tag = tag
			break
		}
	}
	res, err := rt.Ingest([]dataset.TaggedSample{sampleFor(s2Tag, 0)}, obs.TraceContext{}, time.Time{})
	if err != nil || res.Rejected != 1 {
		t.Errorf("ingest to ejected shard: %+v, %v", res, err)
	}
	if rt.rejDown.Value() != 1 {
		t.Errorf("down counter = %d, want 1", rt.rejDown.Value())
	}
	rec := httptest.NewRecorder()
	rt.Routes().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/tags/"+s2Tag+"/estimate", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("estimate on ejected shard: status %d", rec.Code)
	}
}

func TestRouterHealthEjectionAndReadmission(t *testing.T) {
	a, b := newFakeShard(t), newFakeShard(t)
	b.setReady(func(w http.ResponseWriter) { http.Error(w, "boom", http.StatusInternalServerError) })
	cfg := Config{
		Shards: []ShardConfig{
			{ID: "s1", URL: a.srv.URL},
			{ID: "s2", URL: b.srv.URL},
		},
		healthInterval: 10 * time.Millisecond,
		failThreshold:  2,
	}
	rt, err := New(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close(context.Background())

	waitState := func(id string, want ShardState) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			for _, st := range rt.Status() {
				if st.ID == id && st.State == want.String() {
					return
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("shard %s never reached %v: %+v", id, want, rt.Status())
	}

	waitState("s2", ShardEjected)
	if rt.ejections.Value() != 1 {
		t.Errorf("ejections = %d, want 1", rt.ejections.Value())
	}
	// Shard recovers: router must readmit it.
	b.setReady(nil)
	waitState("s2", ShardHealthy)
	if rt.readmissions.Value() != 1 {
		t.Errorf("readmissions = %d, want 1", rt.readmissions.Value())
	}
	// Shard reports draining: router parks it query-only without ejecting.
	a.setReady(func(w http.ResponseWriter) {
		obs.WriteJSON(w, http.StatusServiceUnavailable, node.Readiness{Status: node.StatusDraining})
	})
	waitState("s1", ShardDraining)
	if rt.ejections.Value() != 1 {
		t.Errorf("draining shard was ejected: ejections = %d", rt.ejections.Value())
	}
	// Critical alert is treated the same as draining.
	a.setReady(func(w http.ResponseWriter) {
		obs.WriteJSON(w, http.StatusServiceUnavailable, node.Readiness{Status: node.StatusCriticalAlert})
	})
	time.Sleep(30 * time.Millisecond)
	for _, st := range rt.Status() {
		if st.ID == "s1" && st.State != ShardDraining.String() {
			t.Errorf("critical-alert shard state = %s, want draining", st.State)
		}
	}
}

func TestRouterHTTPIngestAndFanOut(t *testing.T) {
	a, b := newFakeShard(t), newFakeShard(t)
	rt := noHealth(t, a, b, nil)
	mux := rt.Routes()

	var batch []dataset.TaggedSample
	for i := 0; i < 50; i++ {
		batch = append(batch, sampleFor(fmt.Sprintf("TAG-%d", i%5), i))
	}
	body := encodeWire(t, batch)
	req := httptest.NewRequest("POST", "/v1/samples", body)
	req.Header.Set("Content-Type", wire.ContentType)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body)
	}
	var res IngestResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || res.Accepted != len(batch) {
		t.Fatalf("ingest result %s, err %v", rec.Body, err)
	}
	if err := rt.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// /v1/tags merges both shards' tag sets.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/tags", nil))
	var tags struct {
		Tags []string `json:"tags"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tags); err != nil {
		t.Fatal(err)
	}
	if len(tags.Tags) != 5 {
		t.Errorf("merged tags = %v, want 5 ids", tags.Tags)
	}

	// /v1/cluster reports both shards.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/cluster", nil))
	var cl struct {
		Shards []ShardStatus `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &cl); err != nil || len(cl.Shards) != 2 {
		t.Errorf("cluster doc %s, err %v", rec.Body, err)
	}
}

func TestRouterIngestAfterClose(t *testing.T) {
	a, b := newFakeShard(t), newFakeShard(t)
	rt := noHealth(t, a, b, nil)
	if err := rt.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Ingest([]dataset.TaggedSample{sampleFor("T", 0)}, obs.TraceContext{}, time.Time{}); err != ErrClosed {
		t.Errorf("Ingest after close: %v, want ErrClosed", err)
	}
	rec := httptest.NewRecorder()
	rt.Routes().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz after close: %d", rec.Code)
	}
}

// TestRouterEstimateEscapesTag: the estimate and explain proxies must hand the
// owning shard the tag the client asked for. Tag ids are client input, so ids with a
// slash, a question mark, or a literal percent escape must survive the hop
// to the shard unchanged instead of routing to a 404 or to another tag.
func TestRouterEstimateEscapesTag(t *testing.T) {
	a, b := newFakeShard(t), newFakeShard(t)
	rt := noHealth(t, a, b, nil)
	defer rt.Close(context.Background())
	mux := rt.Routes()
	for _, view := range []string{"estimate", "explain"} {
		for _, tag := range []string{"a/b", "a?b", "a%2Fb"} {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/tags/"+url.PathEscape(tag)+"/"+view, nil))
			if rec.Code != http.StatusOK {
				t.Errorf("%s of tag %q: status %d: %s", view, tag, rec.Code, rec.Body)
				continue
			}
			var doc struct {
				Tag  string `json:"tag"`
				View string `json:"view"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
				t.Fatalf("%s of tag %q: %v in %s", view, tag, err, rec.Body)
			}
			if doc.Tag != tag || doc.View != view {
				t.Errorf("%s of tag %q: shard served %s of tag %q", view, tag, doc.View, doc.Tag)
			}
		}
	}
}
