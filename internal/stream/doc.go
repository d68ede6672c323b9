// Package stream is the real-time localization subsystem: it turns the
// offline solvers of internal/core into a continuously operating service.
//
// Readers push timestamped (position, wrapped phase) samples into per-tag
// sessions. Each session keeps a bounded sliding window — by sample count and
// optionally by time-span — in a ring buffer; a full window always slides,
// evicting its oldest sample, so a valid sample is never refused. When
// enough new samples have accumulated, the engine snapshots the window and
// hands it to the configured solver on a persistent batch.Pool; finished
// estimates are published to subscribers and retained as the tag's latest
// estimate.
//
// The key correctness invariant, enforced by tests: solving a streamed
// window is bit-identical to running the offline pipeline
// (core.Preprocess + solver) over the same samples, because both paths share
// SolveWindow. Streaming changes *when* windows are solved, never *what* a
// solve computes.
//
// Back-pressure is per tag: at most one window per tag is in flight and at
// most one is pending. When solves cannot keep up with ingest, intermediate
// windows are coalesced — the pending snapshot is replaced by the newest one
// and a counter records the skip — so the engine degrades by lowering the
// estimate update rate, never by queueing unboundedly or blocking ingest.
// A window solve runs to completion: the solvers are bounded computations,
// and there is no per-solve deadline.
package stream
