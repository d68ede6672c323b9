package node

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"github.com/rfid-lion/lion/internal/obs"
	"github.com/rfid-lion/lion/internal/recal"
)

// errRecalDisabled answers the recal endpoints when the daemon runs
// without -recal.
var errRecalDisabled = errors.New("recalibration disabled (start liond with -recal)")

// handleRecalHistory serves the controller's audit log, newest first.
func (s *server) handleRecalHistory(w http.ResponseWriter, r *http.Request) {
	if s.ctrl == nil {
		obs.WriteError(w, http.StatusNotFound, errRecalDisabled)
		return
	}
	events := s.ctrl.History()
	obs.WriteJSON(w, http.StatusOK, map[string]any{
		"probation": s.ctrl.OnProbation(),
		"events":    events,
	})
}

// handleRecalTrigger runs one recalibration synchronously and returns its
// audit event: 200 on a swap, 422 when the candidate was rejected or the
// evidence insufficient (the event body says which).
func (s *server) handleRecalTrigger(w http.ResponseWriter, r *http.Request) {
	if s.ctrl == nil {
		obs.WriteError(w, http.StatusNotFound, errRecalDisabled)
		return
	}
	reason := "manual"
	var body struct {
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&body); err == nil && body.Reason != "" {
		reason = "manual:" + body.Reason
	}
	ev, err := s.ctrl.Trigger(reason)
	if err != nil {
		obs.WriteError(w, http.StatusServiceUnavailable, err)
		return
	}
	status := http.StatusOK
	if ev.Outcome != recal.OutcomeSwapped {
		status = http.StatusUnprocessableEntity
	}
	obs.WriteJSON(w, status, ev)
}
