package node

import (
	"net/http"

	"github.com/rfid-lion/lion/internal/obs"
)

// explainJSON is the GET /v1/tags/{id}/explain document: one read that says
// why a tag's estimate is late or wrong. Under a stale calibration or a short
// aperture the estimate is biased without any error, so the document puts the
// window's geometry, the solve's convergence, the calibration state and the
// pipeline timing next to the estimate itself.
type explainJSON struct {
	// Estimate is the /v1/tags/{id}/estimate object, unchanged.
	Estimate estimateJSON `json:"estimate"`
	// ApertureM is the distance between the window's first and last sample
	// positions.
	ApertureM float64 `json:"aperture_m"`
	// The IRLS refinement of the window solve; absent when the solve failed.
	Iterations    int      `json:"irls_iterations,omitempty"`
	FinalResidual *float64 `json:"final_residual,omitempty"`
	Condition     *float64 `json:"condition_estimate,omitempty"`
	// ProfileVersion solved the window; ActiveProfileVersion is the engine's
	// calibration now (0 = none). They differ until the tag solves again
	// after a swap.
	ProfileVersion       uint64 `json:"profile_version"`
	ActiveProfileVersion uint64 `json:"active_profile_version"`
	// Drift is the engine antenna's drift status; absent without a monitor
	// or without a calibration for the antenna.
	Drift *driftJSON `json:"drift,omitempty"`
	// Alerts are the active and recently resolved alerts scoped to the tag,
	// the engine's antenna or the whole stream; absent without a monitor or
	// when there are none.
	Alerts []alertJSON `json:"alerts,omitempty"`
	// Spans are the queue_wait/solve/publish spans of the tag's newest
	// sampled solve; absent when no sampled trace reached the tag.
	Spans []obs.PipeSpan `json:"spans,omitempty"`
}

// handleExplain serves GET /v1/tags/{id}/explain. It answers 404 exactly
// when /v1/tags/{id}/estimate does.
func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	est, ok := s.latest(w, r)
	if !ok {
		return
	}
	_, active, _ := s.eng.ActiveProfile()
	out := explainJSON{
		Estimate:             toEstimateJSON(est),
		ApertureM:            est.Aperture,
		ProfileVersion:       est.ProfileVersion,
		ActiveProfileVersion: active,
		Spans:                s.spans.NewestForTag(est.Tag),
	}
	if sol := est.Solution; sol != nil {
		out.Iterations = sol.Iterations
		out.FinalResidual = fnum(sol.FinalResidual)
		out.Condition = fnum(sol.ConditionEstimate)
	}
	for _, d := range s.mon.Drifts() {
		if d.Antenna == s.antenna {
			dj := toDriftJSON(d)
			out.Drift = &dj
		}
	}
	tagScope, antScope := "tag:"+est.Tag, "antenna:"+s.antenna
	for _, a := range s.mon.Alerts() {
		if a.Scope == tagScope || a.Scope == antScope || a.Scope == "stream" {
			out.Alerts = append(out.Alerts, toAlertJSON(a))
		}
	}
	obs.WriteJSON(w, http.StatusOK, out)
}
