// Package node is one liond instance: it parses liond's flags, assembles the
// stream engine, health monitor and recalibration controller, and serves
// them over HTTP until its context ends, then drains. cmd/liond wraps Run
// with a logger, the signal context and the exit code; lionroute's router
// (internal/cluster) sits in front of several nodes and imports this package
// for the node↔router protocol — the Readiness document and its statuses,
// DecodeIngest and the MaxBody bound. The other protocol pieces live in internal/obs:
// obs.Quantiles (one /v1/slo dimension), obs.WriteJSON/obs.WriteError, and
// the /debug/pipespans handler obs.SpanLog.
//
// liond's engine flags (-window, -span, -min, -every, -smooth, -workers and
// the solver flags) map one to one onto stream.Config. Negative values, and
// a -lambda that is negative or not finite, fail at startup.
//
// Endpoints:
//
//	POST /v1/samples               NDJSON lines, {"samples":[...]} or binary wire frames
//	GET  /v1/tags                  known tag ids
//	GET  /v1/tags/{id}/estimate    latest estimate for one tag
//	GET  /v1/tags/{id}/explain     the estimate with its aperture, solve, calibration, alerts and spans
//	GET  /v1/alerts                health alerts + per-antenna drift status
//	GET  /v1/slo                   latency/freshness quantiles + alert latency
//	GET  /v1/recal/history         closed-loop recalibration audit log (-recal)
//	POST /v1/recal/trigger         run one recalibration now (-recal)
//	GET  /healthz                  liveness (always 200 while the process runs)
//	GET  /readyz                   readiness (503 while draining or a critical alert fires)
//	GET  /metrics                  Prometheus exposition (obs registry)
//	GET  /debug/flight/{id}        flight-recorder traces for one tag, NDJSON
//	GET  /debug/pipespans          pipeline spans, NDJSON (?trace= filters)
//	GET  /debug/pprof/...          net/http/pprof profiles
package node
