package node

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/sim"
	"github.com/rfid-lion/lion/internal/stream"
	"github.com/rfid-lion/lion/internal/traject"
)

func smokeTrace(t *testing.T) []sim.Sample {
	t.Helper()
	env, err := sim.NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	reader, err := sim.NewReader(env, sim.ReaderConfig{RateHz: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ant := &sim.Antenna{
		PhysicalCenter:    geom.V3(0.1, 0.8, 0),
		PhaseCenterOffset: geom.V3(0.02, -0.015, 0),
		PhaseOffset:       2.74,
	}
	trj, err := traject.NewLinear(geom.V3(-0.6, 0, 0), geom.V3(0.6, 0, 0), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := reader.Scan(ant, &sim.Tag{PhaseOffset: 0.4}, trj)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestServeSmoke is the end-to-end daemon check behind `make serve-smoke`:
// start the production serve loop on a random port, push an NDJSON trace
// over real HTTP, read the estimate back, and shut down cleanly.
func TestServeSmoke(t *testing.T) {
	cfg, err := parseFlags([]string{"-intervals", "0.1", "-every", "32", "-workers", "2"})
	if err != nil {
		t.Fatal(err)
	}
	eng, mon, ctrl, err := buildPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	cfg.drain = 5 * time.Second
	go func() { serveDone <- serve(ctx, ln, eng, mon, ctrl, cfg) }()
	base := "http://" + ln.Addr().String()

	// healthz answers before any traffic.
	body := getOK(t, base+"/healthz")
	if !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthz: %s", body)
	}

	// Unknown tag before ingest: 404.
	if code, _ := get(t, base+"/v1/tags/NOPE/estimate"); code != http.StatusNotFound {
		t.Fatalf("unknown tag status %d, want 404", code)
	}

	// Garbage body: 400, daemon survives.
	resp, err := http.Post(base+"/v1/samples", "application/x-ndjson",
		strings.NewReader("this is not json\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage ingest status %d, want 400", resp.StatusCode)
	}

	// Replay the recorded trace as one NDJSON POST, cut to a whole number of
	// -every 32 solve periods so the last solve covers the last sample.
	trace := smokeTrace(t)
	trace = trace[:len(trace)-len(trace)%32]
	last := trace[len(trace)-1].Time.Seconds()
	var buf bytes.Buffer
	if err := dataset.WriteNDJSON(&buf, "T1", trace); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/samples", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	ingest := struct{ Accepted, Dropped int }{}
	if err := json.NewDecoder(resp.Body).Decode(&ingest); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ingest.Accepted != len(trace) || ingest.Dropped != 0 {
		t.Fatalf("ingest: status %d accepted %d dropped %d (want 200/%d/0)",
			resp.StatusCode, ingest.Accepted, ingest.Dropped, len(trace))
	}

	// Solves run asynchronously; poll briefly for the final estimate. Early
	// windows are too short for a 0.1 m pair and publish an error, so only
	// an estimate that covers the last sample without error ends the wait.
	var est estimateJSON
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := get(t, base+"/v1/tags/T1/estimate")
		if code == http.StatusOK {
			est = estimateJSON{}
			if err := json.Unmarshal([]byte(body), &est); err != nil {
				t.Fatalf("estimate decode: %v in %s", err, body)
			}
			if math.Abs(est.ToS-last) < 1e-6 && est.Error == "" {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no error-free estimate covering t=%vs after ingest (last status %d, estimate %+v)", last, code, est)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if est.Tag != "T1" || est.Error != "" || est.X == nil || est.Y == nil {
		t.Fatalf("estimate: %+v", est)
	}
	if *est.Y < 0.5 || *est.Y > 1.1 {
		t.Errorf("estimated depth %.3f m implausible for a 0.785 m truth", *est.Y)
	}

	// Tag listing includes T1.
	if body := getOK(t, base+"/v1/tags"); !strings.Contains(body, `"T1"`) {
		t.Errorf("tags: %s", body)
	}

	// Metrics exposition comes from the obs registry.
	metrics := getOK(t, base+"/metrics")
	want := fmt.Sprintf("lion_stream_ingested_total %d", len(trace))
	if !strings.Contains(metrics, want) {
		t.Errorf("metrics missing %q:\n%s", want, metrics)
	}
	for _, name := range []string{
		"lion_stream_solve_latency_seconds_count",
		"lion_uptime_seconds",
		"lion_batch_jobs_total",
		"# TYPE lion_stream_solve_latency_seconds histogram",
		"lion_go_goroutines",
		"lion_go_heap_inuse_bytes",
		"lion_health_solves_observed_total",
		"lion_health_alerts_active",
	} {
		if !strings.Contains(metrics, name) {
			t.Errorf("metrics missing %q", name)
		}
	}

	// The solve trace endpoint serves the newest flight-recorder trace as
	// NDJSON with per-iteration solver events. Flush first so the health
	// hook has recorded the final solve.
	if err := eng.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	traceBody := getOK(t, base+"/debug/trace/T1")
	var sawIter bool
	for _, line := range strings.Split(strings.TrimSpace(traceBody), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if ev["event"] == "irls_iter" {
			sawIter = true
		}
	}
	if !sawIter {
		t.Errorf("trace has no irls_iter events:\n%s", traceBody)
	}
	if code, _ := get(t, base+"/debug/trace/NOPE"); code != http.StatusNotFound {
		t.Errorf("trace for unknown tag: status %d, want 404", code)
	}

	// pprof is mounted: a short CPU profile comes back as a valid pprof
	// protobuf (gzip magic), and the index page lists profiles.
	if body := getOK(t, base+"/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Error("pprof index missing profile listing")
	}
	profResp, err := http.Get(base + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := io.ReadAll(profResp.Body)
	profResp.Body.Close()
	if profResp.StatusCode != http.StatusOK {
		t.Fatalf("pprof profile status %d: %s", profResp.StatusCode, prof)
	}
	if len(prof) < 2 || prof[0] != 0x1f || prof[1] != 0x8b {
		t.Errorf("pprof profile is not gzip-compressed protobuf (got % x...)", prof[:min(8, len(prof))])
	}

	// Graceful shutdown: cancel the serve context and wait for the drain.
	cancel()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down")
	}
	// The engine refuses ingest after the drain: fully closed.
	if err := eng.Ingest("T1", stream.Sample{Phase: 1}); err != stream.ErrClosed {
		t.Errorf("post-shutdown ingest err = %v, want ErrClosed", err)
	}
}

func TestParseFlagsRejectsBadSolver(t *testing.T) {
	if _, err := parseFlags([]string{"-solver", "warp"}); err == nil {
		t.Error("unknown solver accepted")
	}
	if _, err := parseFlags([]string{"-intervals", "abc"}); err == nil {
		t.Error("malformed interval accepted")
	}
	if _, err := parseFlags([]string{"-solver", "line", "-intervals", ""}); err == nil {
		t.Error("line solver with no intervals accepted")
	}
	for _, lam := range []string{"-0.33", "NaN", "+Inf"} {
		if _, err := parseFlags([]string{"-lambda", lam}); err == nil {
			t.Errorf("-lambda %s accepted", lam)
		}
	}
	if _, err := parseFlags([]string{"-solver", "2d", "-stride", "-4"}); err == nil {
		t.Error("negative -stride accepted")
	}
	// A -min above -window (256) parses, but no window could ever reach
	// the solve threshold: the pipeline must refuse it.
	pipelineRejects(t, "-min", "300")
	// Negative tuning values parse as integers; the engine refuses them
	// instead of reading them as "off" or as the default.
	pipelineRejects(t, "-smooth", "-3")
	pipelineRejects(t, "-every", "-16")
	pipelineRejects(t, "-min", "-5")
	pipelineRejects(t, "-workers", "-2")
}

// pipelineRejects asserts that liond's command line args parses but
// buildPipeline refuses it.
func pipelineRejects(t *testing.T, args ...string) {
	t.Helper()
	cfg, err := parseFlags(args)
	if err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	eng, _, ctrl, err := buildPipeline(cfg)
	if err == nil {
		ctrl.Close()
		eng.Close(context.Background())
		t.Errorf("pipeline built for %v, want an error", args)
	}
}

// TestParseFlagsRemovedFlags: -incremental, -reject-newest and
// -solve-timeout are gone. Their former default behaviours are the only
// behaviours: the line solver at -smooth 0 gives the estimates -incremental
// gave, a full window always slides, and window solves run to completion.
func TestParseFlagsRemovedFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-incremental"},
		{"-reject-newest"},
		{"-solve-timeout", "1s"},
	} {
		_, err := parseFlags(args)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("parseFlags(%v) = %v, want an undefined-flag error", args, err)
		}
	}
	cfg, err := parseFlags([]string{"-smooth", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.cfg.Solver == nil || cfg.cfg.SolverFactory != nil || cfg.cfg.Smooth != 0 {
		t.Errorf("-smooth 0 config = %+v, want the line solver without smoothing", cfg.cfg)
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func getOK(t *testing.T, url string) string {
	t.Helper()
	code, body := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, code, body)
	}
	return body
}
