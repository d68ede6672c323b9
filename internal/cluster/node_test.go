package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/node"
	"github.com/rfid-lion/lion/internal/sim"
	"github.com/rfid-lion/lion/internal/traject"
	"github.com/rfid-lion/lion/internal/wire"
)

// startNode runs one real node — liond's server and drain, built from liond
// flags — on a loopback listener and returns its base URL. The node drains
// when the test ends.
func startNode(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	args := []string{"-intervals", "0.1", "-every", "32", "-workers", "1", "-monitor=false", "-drain", "5s"}
	go func() { done <- node.Run(ctx, ln, args, nil) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("node drain: %v", err)
		}
	})
	return "http://" + ln.Addr().String()
}

// nodeTrace is one deterministic scan for a tag, cut to whole -every 32
// solve periods so the final solve covers the last sample.
func nodeTrace(t *testing.T, tag string, seed int64) []dataset.TaggedSample {
	t.Helper()
	env, err := sim.NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	reader, err := sim.NewReader(env, sim.ReaderConfig{RateHz: 100, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ant := &sim.Antenna{
		PhysicalCenter:    geom.V3(0.1, 0.8, 0),
		PhaseCenterOffset: geom.V3(0.02, -0.015, 0),
		PhaseOffset:       2.74,
	}
	trj, err := traject.NewLinear(geom.V3(-0.6, 0, 0), geom.V3(0.6, 0, 0), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := reader.Scan(ant, &sim.Tag{PhaseOffset: 0.4}, trj)
	if err != nil {
		t.Fatal(err)
	}
	samples = samples[:len(samples)-len(samples)%32]
	out := make([]dataset.TaggedSample, len(samples))
	for i, sm := range samples {
		out[i] = dataset.Tagged(tag, sm)
	}
	return out
}

// TestClusterInProcess is the cluster contract inside `go test -race`: a
// router in front of two real nodes ingests one mixed wire stream, a third
// node ingests the same stream alone, and every tag's estimate read through
// the router must equal the single node's.
func TestClusterInProcess(t *testing.T) {
	single := startNode(t)
	cfg := Config{Shards: []ShardConfig{
		{ID: "s1", URL: startNode(t)},
		{ID: "s2", URL: startNode(t)},
	}}
	rt, err := New(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Routes())
	defer front.Close()

	tags := []string{"IP-A", "IP-B", "IP-C", "IP-D", "IP-E", "IP-F"}
	owners := map[string]bool{}
	last := map[string]float64{}
	var traces [][]dataset.TaggedSample
	for i, tag := range tags {
		tr := nodeTrace(t, tag, int64(200+i))
		traces = append(traces, tr)
		last[tag] = tr[len(tr)-1].TimeS
		owners[rt.Owner(tag)] = true
	}
	if len(owners) != 2 {
		t.Fatalf("tags %v all hash to one shard; pick ids that cover both", tags)
	}
	// Round-robin the per-tag scans into one mixed stream.
	var stream []dataset.TaggedSample
	for i := 0; ; i++ {
		n := len(stream)
		for _, tr := range traces {
			if i < len(tr) {
				stream = append(stream, tr[i])
			}
		}
		if len(stream) == n {
			break
		}
	}

	post := func(base string, batch []dataset.TaggedSample) {
		t.Helper()
		var buf bytes.Buffer
		if err := (wire.Codec{}).Encode(&buf, batch); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/samples", wire.ContentType, &buf)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest to %s: status %d", base, resp.StatusCode)
		}
	}
	const chunk = 500
	for i := 0; i < len(stream); i += chunk {
		batch := stream[i:min(i+chunk, len(stream))]
		post(front.URL, batch)
		post(single, batch)
	}
	// Close flushes every forward queue to its shard before returning.
	if err := rt.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// estimate reads the tag's estimate object from /estimate, or from the
	// "estimate" field of explain, and drops the per-process fields: seq
	// counts coalesced dispatches and the latency is wall time.
	estimate := func(base, tag, view string) map[string]any {
		t.Helper()
		resp, err := http.Get(base + "/v1/tags/" + tag + "/" + view)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil
		}
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		if view == "explain" {
			doc, _ = doc["estimate"].(map[string]any)
		}
		delete(doc, "seq")
		delete(doc, "solve_latency_ms")
		return doc
	}
	for _, tag := range tags {
		deadline := time.Now().Add(20 * time.Second)
		for {
			viaRouter, viaSingle := estimate(front.URL, tag, "estimate"), estimate(single, tag, "estimate")
			if viaRouter != nil && viaRouter["to_s"] == last[tag] &&
				viaSingle != nil && viaSingle["to_s"] == last[tag] {
				if viaSingle["error"] != nil || viaSingle["x_m"] == nil {
					t.Errorf("tag %s: single-node estimate failed: %v", tag, viaSingle)
				}
				if !reflect.DeepEqual(viaRouter, viaSingle) {
					t.Errorf("tag %s: router %v, single node %v", tag, viaRouter, viaSingle)
				}
				explained := estimate(front.URL, tag, "explain")
				if explained == nil || !reflect.DeepEqual(explained, viaSingle) {
					t.Errorf("tag %s: explain via router %v, single node estimate %v", tag, explained, viaSingle)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("tag %s: no estimate covering t=%v s (router %v, single %v)",
					tag, last[tag], viaRouter, viaSingle)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
