package node

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/sim"
)

// driftSamples synthesizes clean linear-model reads for the daemon's default
// antenna: phase = 4π·d/λ + offset, tag marching along x. The scan position
// derives from the start time, so consecutive phases produce one continuous
// trajectory with no position jumps at phase boundaries.
func driftSamples(center geom.Vec3, lambda, offset float64, n int, start time.Duration) []sim.Sample {
	base := int(start / (10 * time.Millisecond))
	out := make([]sim.Sample, n)
	for i := range out {
		pos := geom.V3(-0.6+0.001*float64((base+i)%1200), 0, 0)
		out[i] = sim.Sample{
			Time:   start + time.Duration(i)*10*time.Millisecond,
			TagPos: pos,
			Phase:  rf.WrapPhase(rf.PhaseOfDistance(center.Dist(pos), lambda) + offset),
		}
	}
	return out
}

// newHealthServer builds a server through the production flag path with drift
// monitoring armed, handling requests via httptest (no real listener).
func newHealthServer(t *testing.T, extra ...string) (*server, http.Handler) {
	t.Helper()
	args := append([]string{
		// -min 128: at 1 mm sample spacing the 0.1 m pairing interval needs
		// ≥100 samples of aperture, so smaller windows cannot pair.
		"-intervals", "0.1", "-every", "16", "-min", "128", "-workers", "2",
		"-antenna", "A1",
		"-cal-center", "0.1,0.8,0",
		"-cal-offset", "2.74",
		"-drift-frac", "0.02",
		"-drift-window", "64",
		"-hold-down", "200ms",
	}, extra...)
	cfg, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	eng, mon, ctrl, err := buildPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(eng, mon, ctrl, cfg)
	return s, s.routes()
}

func doGet(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

func postSamples(t *testing.T, h http.Handler, tag string, samples []sim.Sample) {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.WriteNDJSON(&buf, tag, samples); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/samples", &buf)
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
	}
}

// feedChunks posts the trace in bursts, letting queued solves finish between
// bursts so alert evaluation ticks land at distinct stream times — what
// paced replay would deliver naturally.
func feedChunks(t *testing.T, s *server, h http.Handler, tag string, samples []sim.Sample) {
	t.Helper()
	for i := 0; i < len(samples); i += 40 {
		postSamples(t, h, tag, samples[i:min(i+40, len(samples))])
		if err := s.eng.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadyzTransitions walks the readiness contract: ready while healthy,
// 503 while a critical alert fires, ready again after it resolves, and 503
// permanently once draining — while /healthz stays 200 throughout.
func TestReadyzTransitions(t *testing.T) {
	s, h := newHealthServer(t)
	center := geom.V3(0.1, 0.8, 0)
	lambda := rf.DefaultBand().Wavelength()

	if code, body := doGet(t, h, "/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("fresh daemon readyz = %d %s", code, body)
	}
	if code, _ := doGet(t, h, "/healthz"); code != http.StatusOK {
		t.Fatal("healthz not 200 on fresh daemon")
	}

	// Healthy replay, chunked so solve ticks land at distinct stream times.
	feedChunks(t, s, h, "T1", driftSamples(center, lambda, 2.74, 400, 0))
	if code, body := doGet(t, h, "/readyz"); code != http.StatusOK {
		t.Fatalf("healthy replay readyz = %d %s", code, body)
	}

	// Drift step: 0.05 λ with a 0.02 λ critical rule. Readiness must drop.
	feedChunks(t, s, h, "T1", driftSamples(center, lambda, 2.74+0.05*4*math.Pi, 400, 4*time.Second))
	if code, body := doGet(t, h, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during critical drift = %d %s", code, body)
	}
	if code, _ := doGet(t, h, "/healthz"); code != http.StatusOK {
		t.Error("healthz must stay 200 while a critical alert fires")
	}

	// Correction: drift resolves, readiness returns.
	feedChunks(t, s, h, "T1", driftSamples(center, lambda, 2.74, 400, 8*time.Second))
	if code, body := doGet(t, h, "/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after correction = %d %s", code, body)
	}

	// Draining wins over health.
	s.draining.Store(true)
	if code, body := doGet(t, h, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("readyz while draining = %d %s", code, body)
	}
	if code, _ := doGet(t, h, "/healthz"); code != http.StatusOK {
		t.Error("healthz must stay 200 while draining")
	}
}

// TestAlertsEndpoint drives a drift alert through HTTP and checks /v1/alerts
// names the offending antenna with the drift estimate and the tag whose
// solve fired it.
func TestAlertsEndpoint(t *testing.T) {
	s, h := newHealthServer(t)
	center := geom.V3(0.1, 0.8, 0)
	lambda := rf.DefaultBand().Wavelength()

	// Empty state: well-formed, no alerts.
	code, body := doGet(t, h, "/v1/alerts")
	if code != http.StatusOK {
		t.Fatalf("alerts status %d", code)
	}
	var empty struct {
		Active   []alertJSON `json:"active"`
		Resolved []alertJSON `json:"resolved"`
		Drifts   []driftJSON `json:"drifts"`
	}
	if err := json.Unmarshal([]byte(body), &empty); err != nil {
		t.Fatalf("alerts decode: %v in %s", err, body)
	}
	if len(empty.Active) != 0 || len(empty.Drifts) != 1 || empty.Drifts[0].Valid {
		t.Fatalf("fresh alerts = %+v", empty)
	}

	feedChunks(t, s, h, "T1", driftSamples(center, lambda, 2.74, 200, 0))
	feedChunks(t, s, h, "T1", driftSamples(center, lambda, 2.74+0.05*4*math.Pi, 400, 2*time.Second))

	code, body = doGet(t, h, "/v1/alerts")
	if code != http.StatusOK {
		t.Fatalf("alerts status %d", code)
	}
	var got struct {
		Active   []alertJSON `json:"active"`
		Resolved []alertJSON `json:"resolved"`
		Drifts   []driftJSON `json:"drifts"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("alerts decode: %v in %s", err, body)
	}
	var drift *alertJSON
	for i := range got.Active {
		if got.Active[i].Rule == "calibration_drift" {
			drift = &got.Active[i]
		}
	}
	if drift == nil {
		t.Fatalf("no calibration_drift alert in %s", body)
	}
	if drift.State != "firing" || drift.Scope != "antenna:A1" || drift.Severity != "critical" {
		t.Errorf("drift alert = %+v", drift)
	}
	if math.Abs(drift.Value-0.05) > 0.01 {
		t.Errorf("drift alert value = %v λ, want ≈0.05", drift.Value)
	}
	if drift.Tag != "T1" {
		t.Errorf("drift alert tag = %q, want T1", drift.Tag)
	}
	if len(got.Drifts) != 1 || !got.Drifts[0].Valid || math.Abs(got.Drifts[0].DriftLambda-0.05) > 0.01 {
		t.Errorf("drift status = %+v", got.Drifts)
	}

	// The flight recorder is gone: its route answers 404 from the mux even
	// with a monitor whose alert names the tag.
	if code, _ := doGet(t, h, "/debug/flight/T1"); code != http.StatusNotFound {
		t.Errorf("/debug/flight/T1 with a monitor: %d, want 404", code)
	}
}

// TestMonitorDisabled covers -monitor=false: the health endpoints 404,
// readyz still answers, the solve path runs monitor-free, and explain answers
// without its drift and alerts sections. The removed /debug/trace,
// /debug/dashboard and /debug/flight answer 404 with or without a monitor.
func TestMonitorDisabled(t *testing.T) {
	s, h := newHealthServer(t, "-monitor=false")
	if s.mon != nil {
		t.Fatal("monitor built despite -monitor=false")
	}
	if code, _ := doGet(t, h, "/v1/alerts"); code != http.StatusNotFound {
		t.Errorf("alerts with monitoring disabled: %d, want 404", code)
	}
	if code, _ := doGet(t, h, "/readyz"); code != http.StatusOK {
		t.Errorf("readyz with monitoring disabled: %d, want 200", code)
	}
	center := geom.V3(0.1, 0.8, 0)
	lambda := rf.DefaultBand().Wavelength()
	postSamples(t, h, "T1", driftSamples(center, lambda, 2.74, 200, 0))
	if err := s.eng.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := s.eng.Metrics().Solves; got == 0 {
		t.Error("no solves with monitoring disabled")
	}
	code, body := doGet(t, h, "/v1/tags/T1/explain")
	if code != http.StatusOK {
		t.Fatalf("explain with monitoring disabled: %d %s", code, body)
	}
	var ex map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &ex); err != nil {
		t.Fatal(err)
	}
	if _, ok := ex["estimate"]; !ok {
		t.Errorf("explain lacks the estimate: %s", body)
	}
	for _, section := range []string{"drift", "alerts"} {
		if _, ok := ex[section]; ok {
			t.Errorf("explain with monitoring disabled carries %q: %s", section, body)
		}
	}
	for _, path := range []string{"/debug/trace/T1", "/debug/dashboard", "/debug/flight/T1"} {
		if code, _ := doGet(t, h, path); code != http.StatusNotFound {
			t.Errorf("%s with monitoring disabled: %d, want 404", path, code)
		}
	}
}

func TestParseFlagsHealth(t *testing.T) {
	if _, err := parseFlags([]string{"-cal-center", "1,2"}); err == nil {
		t.Error("2-component cal-center accepted")
	}
	if _, err := parseFlags([]string{"-cal-center", "a,b,c"}); err == nil {
		t.Error("non-numeric cal-center accepted")
	}
	if _, err := parseFlags([]string{"-cal-center", "0,nan,inf"}); err == nil {
		t.Error("non-finite cal-center accepted")
	}
	cfg, err := parseFlags([]string{"-cal-center", "0.1, 0.8, 0", "-cal-offset", "2.74", "-antenna", "A7"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.health.Calibrations) != 1 {
		t.Fatalf("calibrations = %+v", cfg.health.Calibrations)
	}
	cal := cfg.health.Calibrations[0]
	if cal.Antenna != "A7" || cal.Offset != 2.74 || cal.Center != geom.V3(0.1, 0.8, 0) {
		t.Errorf("calibration = %+v", cal)
	}
	if cfg.cfg.Antenna != "A7" {
		t.Errorf("stream antenna = %q", cfg.cfg.Antenna)
	}
	// Without -cal-center no calibration is armed.
	cfg, err = parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.health.Calibrations) != 0 {
		t.Errorf("calibrations without -cal-center: %+v", cfg.health.Calibrations)
	}
	// A drift window below the estimator's 32-sample minimum could never
	// yield a valid drift estimate, so the alert could never fire.
	pipelineRejects(t, "-cal-center", "0,0.8,0", "-drift-window", "16")
}
