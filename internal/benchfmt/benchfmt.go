// Package benchfmt is the shared schema of the committed BENCH_<pr>.json
// performance snapshots. Three tools speak it: cmd/lionbench writes the
// micro-benchmark section, cmd/lionload merges the macro SLO section from a
// measured load run, and tools/benchguard reads both sections to fail the
// build on regressions. The schema is additive-only — old snapshots must
// keep parsing forever, because the committed files ARE the project's perf
// trajectory.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Schema is the current snapshot schema identifier. Readers accept any
// "lionbench/" prefix (additive evolution), writers emit this one.
const Schema = "lionbench/1"

// Bench is one micro-benchmark's measurements (testing.Benchmark units).
// Snapshots measured over several rounds record the median ns_per_op and
// its interquartile range; older single-run snapshots have no IQR.
type Bench struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerOpIQR  float64 `json:"ns_per_op_iqr,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Macro is one macro-level SLO measurement from a lionload run: a scenario
// driven against a real deployment, one scored metric, and the declared
// target it was scored against. Unlike micro-benchmarks these are
// end-to-end wall-clock numbers, so benchguard guards them against their
// declared Target (an absolute SLO), not against the previous snapshot.
type Macro struct {
	// Name is the stable identifier snapshots are compared on,
	// "<scenario>/<metric>" (e.g. "portal/ingest_p99_seconds").
	Name string `json:"name"`
	// Scenario is the load scenario that produced the measurement.
	Scenario string `json:"scenario"`
	// Metric names the scored quantity (ingest_p99_seconds, drop_rate, ...).
	Metric string `json:"metric"`
	// Value is the measured quantity in Unit.
	Value float64 `json:"value"`
	// Target is the declared SLO bound; Value must stay <= Target. A zero
	// target means the field is recorded for trending but not guarded.
	Target float64 `json:"target,omitempty"`
	// Unit is "seconds" for latency/staleness metrics, "ratio" for rates.
	Unit string `json:"unit"`
	// Count is the number of observations behind Value (0 for scalars).
	Count uint64 `json:"count,omitempty"`
}

// Pass reports whether the measurement meets its declared target (always
// true for untargeted trend-only fields).
func (m Macro) Pass() bool { return m.Target == 0 || m.Value <= m.Target }

// Snapshot is the top-level BENCH_<pr>.json document.
type Snapshot struct {
	Schema     string  `json:"schema"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	MaxProcs   int     `json:"gomaxprocs"`
	Benchmarks []Bench `json:"benchmarks"`
	// Macro is the macro SLO section, absent from pure lionbench snapshots.
	Macro []Macro `json:"macro,omitempty"`
}

// Read parses a snapshot file and validates its schema line.
func Read(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !strings.HasPrefix(snap.Schema, "lionbench/") {
		return nil, fmt.Errorf("%s: unknown schema %q", path, snap.Schema)
	}
	return &snap, nil
}

// Write marshals the snapshot with the canonical indentation and trailing
// newline the committed files use.
func (s *Snapshot) Write(path string) error {
	if s.Schema == "" {
		s.Schema = Schema
	}
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// MergeMacro replaces the snapshot's macro entries for the given scenario
// with the new measurements (other scenarios' entries survive, so several
// lionload runs can accumulate into one snapshot), keeping entries sorted
// by name for deterministic diffs.
func (s *Snapshot) MergeMacro(scenario string, entries []Macro) {
	kept := s.Macro[:0]
	for _, m := range s.Macro {
		if m.Scenario != scenario {
			kept = append(kept, m)
		}
	}
	s.Macro = append(kept, entries...)
	for i := 1; i < len(s.Macro); i++ {
		for j := i; j > 0 && s.Macro[j-1].Name > s.Macro[j].Name; j-- {
			s.Macro[j-1], s.Macro[j] = s.Macro[j], s.Macro[j-1]
		}
	}
}
