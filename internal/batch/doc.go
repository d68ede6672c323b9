// Package batch is a bounded worker-pool engine for fanning out
// embarrassingly parallel localization work: adaptive parameter sweeps and
// per-trial experiment repetitions, plus the stream engine's solve pool.
//
// The engine guarantees deterministic result ordering — outcome i always
// corresponds to job i, regardless of worker count or scheduling — so a
// parallel run is byte-identical to a serial run of the same jobs. Panics
// inside a job are recovered into errors instead of taking the process
// down. Jobs carry no context and no deadline: every job in the repository
// is a bounded CPU computation that runs to completion.
//
// The package is domain-agnostic (stdlib only) so that internal/core and
// internal/experiment can both build on it without import cycles.
package batch
