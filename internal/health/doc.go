// Package health closes the observability loop: it watches signals the
// pipeline already emits (each window solve's condition estimate, the solve
// error rate, the stream drop rate) plus a calibration-drift estimate, and
// turns them into actionable alerts instead of silently degrading estimates.
//
// The paper's central warning is that an uncalibrated phase offset corrupts
// every downstream estimate without any visible failure (Eq. 17). The
// Monitor makes that Achilles' heel a monitored quantity: a drift detector
// re-estimates each antenna's phase offset over a sliding window of streamed
// samples and alerts when it wanders from the calibrated value by more than
// a configured fraction of the wavelength.
//
// A declarative rule set of static thresholds is evaluated on every window
// solve, driving a pending → firing → resolved alert state machine with
// hold-down and resolve hysteresis. A firing alert names the tag whose solve
// confirmed it; that tag's newest Solution (liond's /v1/tags/{id}/explain)
// is the evidence.
//
// The nil *Monitor is the disabled state: every method is a no-op costing
// one nil check and zero allocations, like the nil *obs.SpanLog, so the
// solve and ingest hot paths call through unconditionally.
package health
