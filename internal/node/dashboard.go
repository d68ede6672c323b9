// The /debug/dashboard endpoint: a single self-contained HTML page — no
// external scripts, stylesheets, or fonts — summarising the daemon's health
// at a glance. It renders counter and latency-quantile gauges from the
// stream engine, the alert table and per-antenna drift from the monitor, and
// inline SVG sparklines of the engine's per-tag staleness and the monitor's
// per-tag residual series. Everything is computed server-side per request;
// the page re-polls itself with a meta refresh.
package node

import (
	"fmt"
	"html"
	"math"
	"net/http"
	"strings"
	"time"

	"github.com/rfid-lion/lion/internal/health"
)

// sparkW/sparkH size the inline sparklines.
const (
	sparkW = 220
	sparkH = 36
)

// svgSparkline renders values as a polyline scaled into a fixed viewBox.
// Non-finite values are clamped; a flat or empty series renders a midline.
func svgSparkline(values []float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg width="%d" height="%d" viewBox="0 0 %d %d" class="spark">`,
		sparkW, sparkH, sparkW, sparkH)
	if len(values) > 1 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if hi <= lo {
			hi = lo + 1
		}
		sb.WriteString(`<polyline fill="none" stroke="#2a7" stroke-width="1.5" points="`)
		for i, v := range values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = lo
			}
			x := float64(i) / float64(len(values)-1) * float64(sparkW-4)
			y := (1 - (v-lo)/(hi-lo)) * float64(sparkH-6)
			fmt.Fprintf(&sb, "%.1f,%.1f ", x+2, y+3)
		}
		sb.WriteString(`"/>`)
	} else {
		fmt.Fprintf(&sb, `<line x1="0" y1="%d" x2="%d" y2="%d" stroke="#ccc"/>`,
			sparkH/2, sparkW, sparkH/2)
	}
	sb.WriteString(`</svg>`)
	return sb.String()
}

func stateClass(st health.State) string {
	switch st {
	case health.StateFiring:
		return "firing"
	case health.StatePending:
		return "pending"
	default:
		return "resolved"
	}
}

func (s *server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	m := s.eng.Metrics()
	var sb strings.Builder
	sb.WriteString(`<!doctype html><html><head><meta charset="utf-8">` +
		`<meta http-equiv="refresh" content="5"><title>liond dashboard</title><style>` +
		`body{font:14px/1.4 system-ui,sans-serif;margin:1.5em;color:#222}` +
		`h1{font-size:1.3em}h2{font-size:1.05em;margin-top:1.4em}` +
		`table{border-collapse:collapse;margin-top:.5em}` +
		`td,th{border:1px solid #ddd;padding:.25em .6em;text-align:left;font-variant-numeric:tabular-nums}` +
		`th{background:#f5f5f5}` +
		`.gauges{display:flex;flex-wrap:wrap;gap:.8em;margin-top:.5em}` +
		`.gauge{border:1px solid #ddd;border-radius:6px;padding:.5em .8em;min-width:9em}` +
		`.gauge .v{font-size:1.4em;font-weight:600}` +
		`.gauge .l{color:#666;font-size:.85em}` +
		`.firing{background:#fdd}.pending{background:#ffe9c9}.resolved{background:#e8f6e8}` +
		`.ok{color:#2a7}.bad{color:#c22}.spark{vertical-align:middle}` +
		`</style></head><body><h1>liond</h1>`)

	doc, ready := s.readiness()
	class := "bad"
	if ready {
		class = "ok"
	}
	fmt.Fprintf(&sb, `<p>status <span class="%s">%s</span> · uptime %s · monitoring %v</p>`,
		class, doc.Status, time.Since(s.start).Round(time.Second), s.mon != nil)

	sb.WriteString(`<h2>Stream</h2><div class="gauges">`)
	gauge := func(label string, value string) {
		fmt.Fprintf(&sb, `<div class="gauge"><div class="v">%s</div><div class="l">%s</div></div>`,
			value, html.EscapeString(label))
	}
	gauge("tags", fmt.Sprint(m.Tags))
	gauge("ingested", fmt.Sprint(m.Ingested))
	gauge("solves", fmt.Sprint(m.Solves))
	gauge("solve errors", fmt.Sprint(m.SolveErrors))
	gauge("dropped", fmt.Sprint(m.DroppedOverflow+m.DroppedAge))
	gauge("queue depth", fmt.Sprint(m.QueueDepth))
	latency, _ := s.eng.Registry().FindHistogram("lion_stream_solve_latency_seconds") // the engine registers it
	if q := latency.Quantiles(); q.Count > 0 {
		gauge("p50 latency", fmt.Sprintf("%.2g s", q.P50))
		gauge("p99 latency", fmt.Sprintf("%.2g s", q.P99))
	}
	sb.WriteString(`</div>`)

	// Per-tag freshness: how stale each tag's estimates are at publication,
	// measured from the upstream receive clock (bounded so the page stays
	// small). The latest cell is the most recent published estimate's age.
	staleTags := s.eng.Tags()
	if len(staleTags) > 8 {
		staleTags = staleTags[:8]
	}
	var staleRows []string
	for _, tag := range staleTags {
		series := s.eng.StalenessSeries(tag)
		if len(series) == 0 {
			continue
		}
		staleRows = append(staleRows, fmt.Sprintf(`<tr><td>%s</td><td>%s</td><td>%.4g s</td></tr>`,
			html.EscapeString(tag), svgSparkline(series), series[len(series)-1]))
	}
	if len(staleRows) > 0 {
		sb.WriteString(`<h2>Staleness</h2><table><tr><th>tag</th><th>staleness</th><th>latest</th></tr>`)
		for _, row := range staleRows {
			sb.WriteString(row)
		}
		sb.WriteString(`</table>`)
	}

	if s.mon != nil {
		sb.WriteString(`<h2>Calibration drift</h2>`)
		drifts := s.mon.Drifts()
		if len(drifts) == 0 {
			sb.WriteString(`<p>no calibrations configured (-cal-center)</p>`)
		} else {
			sb.WriteString(`<table><tr><th>antenna</th><th>calibrated</th><th>estimated</th>` +
				`<th>drift (λ)</th><th>samples</th></tr>`)
			for _, d := range drifts {
				est := "—"
				drift := "—"
				if d.Valid {
					est = fmt.Sprintf("%.4f rad", d.Estimated)
					drift = fmt.Sprintf("%+.4f", math.Copysign(d.DriftLambda, d.DriftRad))
				}
				fmt.Fprintf(&sb, `<tr><td>%s</td><td>%.4f rad</td><td>%s</td><td>%s</td><td>%d</td></tr>`,
					html.EscapeString(d.Antenna), d.Calibrated, est, drift, d.Samples)
			}
			sb.WriteString(`</table>`)
		}

		sb.WriteString(`<h2>Alerts</h2>`)
		alerts := s.mon.Alerts()
		if len(alerts) == 0 {
			sb.WriteString(`<p class="ok">no active or recent alerts</p>`)
		} else {
			sb.WriteString(`<table><tr><th>state</th><th>rule</th><th>scope</th><th>severity</th>` +
				`<th>value</th><th>threshold</th><th>since</th></tr>`)
			for _, a := range alerts {
				fmt.Fprintf(&sb,
					`<tr class="%s"><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%.4g</td><td>%.4g</td><td>%s</td></tr>`,
					stateClass(a.State), a.State, html.EscapeString(a.Rule),
					html.EscapeString(a.Scope), a.Severity, a.Value, a.Threshold,
					a.StartedAt.Round(time.Millisecond))
			}
			sb.WriteString(`</table>`)
		}

		// Per-tag residual sparklines for the first 8 flight-recorder tags in
		// id order (bounded, so the page stays small).
		tags := s.mon.FlightTags()
		if len(tags) > 8 {
			tags = tags[:8]
		}
		var rows []string
		for _, tag := range tags {
			series := s.mon.Series(tag, health.SignalResidual)
			if len(series) == 0 {
				continue
			}
			rows = append(rows, fmt.Sprintf(`<tr><td>%s</td><td>%s</td><td>%.4g</td></tr>`,
				html.EscapeString(tag), svgSparkline(series), series[len(series)-1]))
		}
		if len(rows) > 0 {
			sb.WriteString(`<h2>Residuals</h2><table><tr><th>tag</th><th>residual norm</th><th>latest</th></tr>`)
			for _, row := range rows {
				sb.WriteString(row)
			}
			sb.WriteString(`</table>`)
		}
	}

	sb.WriteString(`</body></html>`)
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(sb.String()))
}
