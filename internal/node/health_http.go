// Health and alerting endpoints: /v1/alerts and /readyz.
// The liveness/readiness split follows the usual orchestration contract —
// /healthz answers 200 for as long as the process can serve HTTP at all,
// while /readyz reports whether this instance should receive traffic: it
// returns 503 once the daemon starts draining or while any critical-severity
// alert (ill-conditioned solves, solver failures, calibration drift) fires.
package node

import (
	"fmt"
	"net/http"

	"github.com/rfid-lion/lion/internal/health"
	"github.com/rfid-lion/lion/internal/obs"
)

// alertJSON is the wire form of one alert. Timestamps are stream time,
// seconds since the stream's epoch — the clock alert hysteresis runs on.
type alertJSON struct {
	Rule      string  `json:"rule"`
	Signal    string  `json:"signal"`
	Severity  string  `json:"severity"`
	Scope     string  `json:"scope"`
	State     string  `json:"state"`
	Value     float64 `json:"value"`
	RawValue  float64 `json:"raw_value"`
	Threshold float64 `json:"threshold"`
	StartedS  float64 `json:"started_s"`
	FiredS    float64 `json:"fired_s,omitempty"`
	ResolvedS float64 `json:"resolved_s,omitempty"`
	UpdatedS  float64 `json:"updated_s"`
	// Tag is the tag whose solve confirmed the alert as it fired.
	Tag string `json:"tag,omitempty"`
}

// driftJSON is the wire form of one antenna's drift status.
type driftJSON struct {
	Antenna     string  `json:"antenna"`
	CalibratedR float64 `json:"calibrated_rad"`
	EstimatedR  float64 `json:"estimated_rad"`
	DriftR      float64 `json:"drift_rad"`
	DriftLambda float64 `json:"drift_lambda"`
	Samples     int     `json:"samples"`
	Valid       bool    `json:"valid"`
}

func toAlertJSON(a health.Alert) alertJSON {
	return alertJSON{
		Rule:      a.Rule,
		Signal:    string(a.Signal),
		Severity:  a.Severity.String(),
		Scope:     a.Scope,
		State:     a.State.String(),
		Value:     a.Value,
		RawValue:  a.RawValue,
		Threshold: a.Threshold,
		StartedS:  a.StartedAt.Seconds(),
		FiredS:    a.FiredAt.Seconds(),
		ResolvedS: a.ResolvedAt.Seconds(),
		UpdatedS:  a.UpdatedAt.Seconds(),
		Tag:       a.Tag,
	}
}

func toDriftJSON(d health.DriftStatus) driftJSON {
	return driftJSON{
		Antenna:     d.Antenna,
		CalibratedR: d.Calibrated,
		EstimatedR:  d.Estimated,
		DriftR:      d.DriftRad,
		DriftLambda: d.DriftLambda,
		Samples:     d.Samples,
		Valid:       d.Valid,
	}
}

// handleAlerts serves the active alerts, the recently-resolved history, and
// the per-antenna drift status as one JSON document.
func (s *server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if s.mon == nil {
		obs.WriteError(w, http.StatusNotFound, fmt.Errorf("monitoring disabled (liond runs with -monitor=false)"))
		return
	}
	active := []alertJSON{}
	resolved := []alertJSON{}
	for _, a := range s.mon.Alerts() {
		if a.State == health.StateResolved {
			resolved = append(resolved, toAlertJSON(a))
		} else {
			active = append(active, toAlertJSON(a))
		}
	}
	drifts := []driftJSON{}
	for _, d := range s.mon.Drifts() {
		drifts = append(drifts, toDriftJSON(d))
	}
	obs.WriteJSON(w, http.StatusOK, map[string]any{
		"active":   active,
		"resolved": resolved,
		"drifts":   drifts,
	})
}

// Readiness is the /readyz document, the node half of the router's health
// probe: lionroute decodes it to decide whether a shard takes ingest.
type Readiness struct {
	// Status is StatusReady on a 200 answer and StatusDraining or
	// StatusCriticalAlert on a 503. lionroute parks a shard reporting
	// either 503 status query-only instead of ejecting it.
	Status string `json:"status"`
}

// The /readyz status values.
const (
	StatusReady         = "ready"
	StatusDraining      = "draining"
	StatusCriticalAlert = "critical-alert"
)

// readiness reports the node's /readyz document and whether it is ready. A
// nil monitor never blocks readiness: the node is ready unless it is
// draining.
func (s *server) readiness() (Readiness, bool) {
	switch {
	case s.draining.Load():
		return Readiness{Status: StatusDraining}, false
	case s.mon.CriticalFiring():
		return Readiness{Status: StatusCriticalAlert}, false
	}
	return Readiness{Status: StatusReady}, true
}

func (s *server) handleReady(w http.ResponseWriter, r *http.Request) {
	doc, ready := s.readiness()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	obs.WriteJSON(w, status, doc)
}
