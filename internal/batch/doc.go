// Package batch is a bounded worker-pool engine for fanning out
// embarrassingly parallel localization work: adaptive parameter sweeps and
// per-trial experiment repetitions, plus the stream engine's solve pool.
//
// The engine guarantees deterministic result ordering — outcome i always
// corresponds to job i, regardless of worker count or scheduling — so a
// parallel run is byte-identical to a serial run of the same jobs. Jobs run
// under a context.Context with optional per-job timeouts, and panics inside
// a job are recovered into errors instead of taking the process down.
//
// The package is domain-agnostic (stdlib only) so that internal/core and
// internal/experiment can both build on it without import cycles.
package batch
