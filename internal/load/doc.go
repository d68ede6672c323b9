// Package load is the million-tag load harness: a deterministic open-loop
// generator that drives synthetic tag fleets from internal/sim at a
// configured tags/sec against a liond node or a lionroute cluster, measures
// the end-to-end SLOs a deployment actually promises (ingest latency,
// estimate staleness, drop rate, alert latency), and scores them against
// per-scenario targets.
//
// The core design decision is coordinated-omission safety. A closed-loop
// blaster that waits for each response before sending the next request
// silently conspires with a stalling server: while the server is stuck, the
// client stops issuing requests, so the stall appears in the log as ONE
// slow request instead of the thousands that real independent clients would
// have experienced. This harness instead schedules every batch on an ideal
// clock fixed before the run starts (send i is due at start + i·interval)
// and measures each batch's latency from its scheduled time, not from the
// moment the sender got around to it. A stalled server therefore inflates
// the recorded tail by exactly the backlog it caused — the tail cannot
// hide. See DESIGN.md §15 for the full rationale.
//
// The measurement path is allocation-steady: schedules are precomputed,
// batches are filled into reused buffers, and latencies go into
// stats.Hist (a fixed-array HDR-style histogram), so the generator can
// sustain hundreds of thousands of samples per second without the harness
// distorting the tail it exists to measure.
//
// The same scenario run also drives the server-side half of the
// measurement: a scraper polls /v1/slo during the run so client-observed
// latency can be correlated with server-reported staleness, queue wait,
// and alert-fire latency, and the verdict engine cross-checks that the
// client's p99 and the server's p99 agree — a disagreement means one side
// of the instrumentation is lying.
package load
