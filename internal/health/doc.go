// Package health closes the observability loop: it watches the per-solve
// signals the pipeline already emits (residual norm, condition estimate,
// IRLS iteration counts, solve latency, stream drop rate) and turns them
// into actionable alerts instead of silently degrading estimates.
//
// The paper's central warning is that an uncalibrated phase offset corrupts
// every downstream estimate without any visible failure (Eq. 17). The
// Monitor makes that Achilles' heel a monitored quantity: a drift detector
// re-estimates each antenna's phase offset over a sliding window of streamed
// samples and alerts when it wanders from the calibrated value by more than
// a configured fraction of the wavelength.
//
// Three pieces compose:
//
//   - rolling quality baselines (windowed mean and z-score) per tag, so
//     deviation rules adapt to each deployment's own normal;
//   - a declarative rule set (static thresholds and deviation-from-baseline)
//     evaluated on every window solve, driving a pending → firing → resolved
//     alert state machine with hold-down and resolve hysteresis;
//   - a bounded flight recorder that keeps the last solve traces per tag and
//     snapshots them onto every alert as it fires, so an alert always
//     carries the evidence that triggered it.
//
// The nil *Monitor is the disabled state: every method is a no-op costing
// one nil check and zero allocations, mirroring the nil *obs.Tracer
// contract, so the solve and ingest hot paths call through unconditionally.
package health
