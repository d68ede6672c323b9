// Package batch is the one bounded worker pool for fanning out
// embarrassingly parallel localization work. Pool accepts jobs over time
// and backs the stream engine's window solves; Run submits one slice of
// jobs to a Pool sized by runtime.GOMAXPROCS(0) and waits for it, which is
// how adaptive parameter sweeps and per-trial experiment repetitions fan
// out.
//
// Run guarantees deterministic result ordering — outcome i always
// corresponds to job i, regardless of GOMAXPROCS or scheduling — so a
// parallel run is byte-identical to a run at GOMAXPROCS 1. Panics inside a
// job are recovered into errors (errors.Is ErrPanic) instead of taking the
// process down. Jobs carry no context and no deadline: every job in the
// repository is a bounded CPU computation that runs to completion.
//
// The package knows nothing of localization (it imports only the standard
// library and internal/obs) so that internal/core, internal/experiment and
// internal/stream can all build on it without import cycles.
package batch
