// Package obs is the unified observability layer of the LION pipeline: a
// dependency-free metrics registry with exact Prometheus exposition, a
// nil-safe solve tracer that records per-IRLS-iteration and per-candidate
// events as NDJSON, a bounded log of sampled pipeline spans (SpanLog), and a
// structured JSON logger.
//
// The tracer serves offline solves (lionsim -trace, or any caller setting
// core.SolveOptions.Trace); the stream engine hands its window solves a nil
// tracer, so a live tag's per-solve record is its newest Solution plus the
// spans of its sampled solves.
//
// The pieces share one design rule: the hot path pays nothing when
// observability is off. Tracer methods are nil-safe no-ops (a disabled solve
// performs zero allocations — enforced by TestTracingZeroOverheadWhenNil),
// counters are single atomic adds, and exposition work happens only when a
// scraper asks for it.
//
// Every metric registered anywhere in the repo must be named lion_[a-z_]+
// and documented in DESIGN.md §9, and every metric that section's table
// lists must be registered; `make check` enforces all three through
// tools/metriclint.
package obs
