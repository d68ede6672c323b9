package node

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/recal"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/sim"
)

// driftedTrace synthesizes n clean Eq. 2 samples of a tag marching past the
// antenna with a constant phase offset — monotonic 5 mm steps so any window
// spans the pairing interval.
func driftedTrace(center geom.Vec3, lambda, offset float64, n int) []sim.Sample {
	out := make([]sim.Sample, n)
	for i := range out {
		pos := geom.V3(-1.0+0.005*float64(i), 0, 0)
		out[i] = sim.Sample{
			Time:   time.Duration(i) * 10 * time.Millisecond,
			TagPos: pos,
			Phase:  rf.WrapPhase(rf.PhaseOfDistance(center.Dist(pos), lambda) + offset),
			RSSI:   -55,
		}
	}
	return out
}

// TestRecalSmoke is the end-to-end daemon check behind `make recal-smoke`:
// start liond with -recal and a deliberately stale calibration offset, push
// a drifted trace over real HTTP, trigger a recalibration, and watch the
// profile hot-swap land — audit log, metrics, and all — with no restart.
func TestRecalSmoke(t *testing.T) {
	antenna := geom.V3(0.05, 0.8, 0)
	lambda := rf.DefaultBand().Wavelength()
	const staleOffset = 1.2
	trueOffset := staleOffset + 0.05*4*math.Pi

	cfg, err := parseFlags([]string{
		"-recal",
		"-cal-center", "0.05,0.8,0",
		"-cal-offset", fmt.Sprintf("%g", staleOffset),
		"-window", "128", "-min", "32", "-every", "16", "-smooth", "0",
		"-workers", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, mon, ctrl, err := buildPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mon == nil || ctrl == nil {
		t.Fatal("-recal pipeline missing monitor or controller")
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

	// The calibration seeds the engine's initial antenna profile.
	if _, version, ok := eng.ActiveProfile(); !ok || version != 1 {
		t.Fatalf("initial profile version=%d ok=%v, want 1", version, ok)
	}

	// Empty history while nothing has run.
	var hist struct {
		Probation bool          `json:"probation"`
		Events    []recal.Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(getOK(t, base+"/v1/recal/history")), &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist.Events) != 0 {
		t.Fatalf("fresh daemon has recal history: %+v", hist.Events)
	}

	// Replay a trace whose offset drifted 0.05 λ past the calibration.
	var buf bytes.Buffer
	if err := dataset.WriteNDJSON(&buf, "T1", driftedTrace(antenna, lambda, trueOffset, 128)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/samples", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	// Ingest only queues the window solves; wait for them before reading
	// the estimate.
	if err := eng.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Estimates name the profile that corrected their window.
	if est := getOK(t, base+"/v1/tags/T1/estimate"); !strings.Contains(est, `"profile_version":1`) {
		t.Errorf("pre-swap estimate missing profile_version 1: %s", est)
	}

	// Trigger a recalibration over the live window.
	resp, err = http.Post(base+"/v1/recal/trigger", "application/json",
		strings.NewReader(`{"reason":"smoke"}`))
	if err != nil {
		t.Fatal(err)
	}
	var ev recal.Event
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ev.Outcome != recal.OutcomeSwapped {
		t.Fatalf("trigger: status %d event %+v, want 200/swapped", resp.StatusCode, ev)
	}
	if ev.Reason != "manual:smoke" {
		t.Errorf("trigger reason = %q, want manual:smoke", ev.Reason)
	}
	if d := math.Abs(rf.WrapPhaseSigned(ev.NewOffset - rf.WrapPhase(trueOffset))); d > 0.05 {
		t.Errorf("re-solved offset %v, want ≈%v", ev.NewOffset, rf.WrapPhase(trueOffset))
	}
	prof, version, ok := eng.ActiveProfile()
	if !ok || version != 2 {
		t.Fatalf("post-swap profile version=%d ok=%v, want 2", version, ok)
	}
	if d := math.Abs(rf.WrapPhaseSigned(prof.Offset - rf.WrapPhase(trueOffset))); d > 0.05 {
		t.Errorf("active profile offset %v, want ≈%v", prof.Offset, rf.WrapPhase(trueOffset))
	}

	// History reflects the swap and the probation window.
	if err := json.Unmarshal([]byte(getOK(t, base+"/v1/recal/history")), &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist.Events) != 1 || hist.Events[0].Outcome != recal.OutcomeSwapped {
		t.Fatalf("history after swap: %+v", hist)
	}
	if !hist.Probation {
		t.Error("history does not report probation after a swap")
	}

	// The recal metrics live on the shared registry.
	metrics := getOK(t, base+"/metrics")
	for _, want := range []string{
		`lion_recal_runs_total{outcome="swapped"} 1`,
		"lion_recal_solve_seconds_count 1",
		"lion_recal_active_version 2",
		"lion_stream_profile_swaps_total 1",
		"lion_stream_profile_version 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	cancel()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down")
	}
}

func TestParseFlagsRecal(t *testing.T) {
	if _, err := parseFlags([]string{"-recal"}); err == nil {
		t.Error("-recal without -cal-center accepted")
	}
	if _, err := parseFlags([]string{"-recal", "-cal-center", "0,0.8,0", "-monitor=false"}); err == nil {
		t.Error("-recal without the monitor accepted")
	}
	cfg, err := parseFlags([]string{"-recal", "-cal-center", "0,0.8,0", "-cal-offset", "1.5"})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.recal || cfg.recalMargin != 0.05 || cfg.recalMin != 64 {
		t.Errorf("recal defaults wrong: %+v", cfg)
	}
}
