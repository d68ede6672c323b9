// The /v1/slo endpoint.
//
// /v1/slo is the per-shard half of the cluster SLO contract: it reports the
// windowed p50/p95/p99 of every pipeline latency dimension this daemon
// measures, in exactly the shape lionroute's rollup parses — one
// obs.Quantiles object per dimension plus a scalar "alert_latency_seconds".
// Dimensions with no observations yet are reported with an explicit zero
// count and zero quantiles — never omitted, and never with garbage quantiles
// from an empty window. The zero count is the
// consumer's signal: lionroute's rollup and lionload's scraper both treat
// count==0 as "no evidence", so an idle shard can never be mistaken for a
// fast one.
package node

import (
	"net/http"
	"time"

	"github.com/rfid-lion/lion/internal/obs"
)

// sloDimensions maps /v1/slo document keys to the registry histograms they
// summarise. Quantiles come from each histogram's most recent 1024–2047
// observations, so they track current behaviour, not lifetime averages.
var sloDimensions = []struct{ key, metric string }{
	{"staleness_seconds", "lion_stream_staleness_seconds"},
	{"queue_wait_seconds", "lion_stream_queue_wait_seconds"},
	{"solve_latency_seconds", "lion_stream_solve_latency_seconds"},
	{"publish_latency_seconds", "lion_stream_publish_latency_seconds"},
	{"ingest_decode_seconds", "lion_ingest_decode_seconds"},
	{"ingest_request_seconds", "lion_http_ingest_seconds"},
}

func (s *server) handleSLO(w http.ResponseWriter, r *http.Request) {
	doc := make(map[string]any, len(sloDimensions)+1)
	for _, dim := range sloDimensions {
		if h, ok := s.eng.Registry().FindHistogram(dim.metric); ok {
			doc[dim.key] = h.Quantiles()
		}
	}
	if lat, ok := s.alertLatency(); ok {
		doc["alert_latency_seconds"] = lat
	}
	obs.WriteJSON(w, http.StatusOK, doc)
}

// alertLatency reports how long the most recently fired alert took to fire:
// FiredAt − StartedAt on the monitor's stream-time clock, i.e. hold-down plus
// detection lag. Pending alerts have no latency yet and a nil monitor has no
// alerts at all; both report ok=false and the dimension is omitted.
func (s *server) alertLatency() (float64, bool) {
	if s.mon == nil {
		return 0, false
	}
	var latest, lat time.Duration
	found := false
	for _, a := range s.mon.Alerts() {
		if a.FiredAt == 0 {
			continue
		}
		if !found || a.FiredAt > latest {
			latest, lat, found = a.FiredAt, a.FiredAt-a.StartedAt, true
		}
	}
	return lat.Seconds(), found
}
