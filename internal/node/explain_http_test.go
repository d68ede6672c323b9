package node

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/wire"
)

func getExplain(t *testing.T, h http.Handler, tag string) explainJSON {
	t.Helper()
	code, body := doGet(t, h, "/v1/tags/"+tag+"/explain")
	if code != http.StatusOK {
		t.Fatalf("explain %s: %d %s", tag, code, body)
	}
	var ex explainJSON
	if err := json.Unmarshal([]byte(body), &ex); err != nil {
		t.Fatalf("explain %s decode: %v in %s", tag, err, body)
	}
	return ex
}

// TestExplainDiagnosesShortWindowAndStaleProfile: the antenna's phase offset
// drifts 0.05 λ away from the engine's profile, and two tags publish under
// that stale profile, one from a full window and one from a window that just
// reached -min. The two explain bodies alone tell the cases apart and name
// the stale calibration.
func TestExplainDiagnosesShortWindowAndStaleProfile(t *testing.T) {
	s, h := newHealthServer(t)
	center := geom.V3(0.1, 0.8, 0)
	lambda := rf.DefaultBand().Wavelength()
	drifted := 2.74 + 0.05*4*math.Pi
	feedChunks(t, s, h, "FULL", driftSamples(center, lambda, 2.74, 200, 0))
	feedChunks(t, s, h, "FULL", driftSamples(center, lambda, drifted, 400, 2*time.Second))
	// -min 128, -every 16: the short tag publishes from 128 and then 144
	// samples, well below the 256-sample window.
	feedChunks(t, s, h, "SHORT", driftSamples(center, lambda, drifted, 144, 6*time.Second))

	full, short := getExplain(t, h, "FULL"), getExplain(t, h, "SHORT")
	if full.Estimate.Window != 256 || short.Estimate.Window != 144 {
		t.Errorf("windows: full %d, short %d; want 256 and 144", full.Estimate.Window, short.Estimate.Window)
	}
	if !(short.ApertureM < full.ApertureM) || short.ApertureM <= 0 {
		t.Errorf("apertures: short %.3f m, full %.3f m; want 0 < short < full", short.ApertureM, full.ApertureM)
	}
	for name, ex := range map[string]explainJSON{"FULL": full, "SHORT": short} {
		if ex.ProfileVersion != 1 || ex.ActiveProfileVersion != 1 {
			t.Errorf("%s: profile %d, active %d; want both 1", name, ex.ProfileVersion, ex.ActiveProfileVersion)
		}
		if ex.Drift == nil || !ex.Drift.Valid || math.Abs(ex.Drift.DriftLambda-0.05) > 0.01 {
			t.Errorf("%s: drift = %+v, want valid ≈0.05 λ", name, ex.Drift)
		}
		firing := false
		for _, a := range ex.Alerts {
			firing = firing || (a.Rule == "calibration_drift" && a.Scope == "antenna:A1" && a.State == "firing")
		}
		if !firing {
			t.Errorf("%s: no firing calibration_drift alert on antenna:A1 in %+v", name, ex.Alerts)
		}
	}
	if code, _ := doGet(t, h, "/v1/tags/NOPE/explain"); code != http.StatusNotFound {
		t.Errorf("explain for unknown tag: %d, want 404", code)
	}
}

// TestExplainSpans: a sampled batch's queue_wait/solve/publish spans reach
// the tag's explain body under the batch's trace id; an untraced tag's body
// carries none.
func TestExplainSpans(t *testing.T) {
	s := traceServer(t)
	h := s.routes()
	trace := smokeTrace(t)
	tagged := make([]dataset.TaggedSample, len(trace))
	for i, sm := range trace {
		tagged[i] = dataset.Tagged("T1", sm)
	}
	body, err := wire.AppendFrames(nil, tagged, &wire.Ext{TraceID: 0xbeef})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/samples", bytes.NewReader(body))
	req.Header.Set("Content-Type", wire.ContentType)
	h.ServeHTTP(httptest.NewRecorder(), req)
	postSamples(t, h, "T2", trace)
	if err := s.eng.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	var stages []string
	for _, sp := range getExplain(t, h, "T1").Spans {
		if sp.TraceID != 0xbeef || sp.Tag != "T1" {
			t.Errorf("span %+v, want trace beef on T1", sp)
		}
		stages = append(stages, sp.Stage)
	}
	if len(stages) != 3 || stages[0] != "queue_wait" || stages[1] != "solve" || stages[2] != "publish" {
		t.Errorf("explain stages = %v, want [queue_wait solve publish]", stages)
	}
	if spans := getExplain(t, h, "T2").Spans; len(spans) != 0 {
		t.Errorf("untraced tag explain carries spans %+v", spans)
	}
}
