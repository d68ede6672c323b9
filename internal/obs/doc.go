// Package obs is the unified observability layer of the LION pipeline: a
// dependency-free metrics registry with exact Prometheus exposition, a
// bounded log of sampled pipeline spans (SpanLog), and a structured JSON
// logger.
//
// SpanLog is the only trace model. A live tag's per-solve record is its
// newest Solution plus the spans of its sampled solves; an offline adaptive
// solve explains itself through core.AdaptiveResult.All (lionsim -explain).
//
// The pieces share one design rule: the hot path pays nothing when
// observability is off. An unsampled batch records no span (enforced by
// TestPipelineUntracedZeroAllocs), counters are single atomic adds, and
// exposition work happens only when a scraper asks for it.
//
// Every metric registered anywhere in the repo must be named lion_[a-z_]+
// and documented in DESIGN.md §9, and every metric that section's table
// lists must be registered; `make check` enforces all three through
// tools/metriclint.
package obs
