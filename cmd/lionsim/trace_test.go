package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/rfid-lion/lion/internal/calib"
)

// traceCounts tallies one NDJSON trace dump.
type traceCounts struct {
	iters, cands, spans int
}

// runTrace runs one scenario with -trace and tallies its NDJSON dump: the
// irls_iter events (each numbered from 1), the candidate events (each with a
// positive interval) and the adaptive_three_line spans.
func runTrace(t *testing.T, scenario string) traceCounts {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "scan.csv")
	trace := filepath.Join(dir, "trace.ndjson")
	err := run([]string{
		"-scenario", scenario, "-o", out, "-trace", trace,
		"-span", "1.2", "-rate", "100",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var c traceCounts
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev struct {
			Event    string  `json:"event"`
			Span     string  `json:"span"`
			Iter     int     `json:"iter"`
			Interval float64 `json:"interval_m"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Event {
		case "irls_iter":
			c.iters++
			if ev.Iter < 1 {
				t.Errorf("irls_iter with iter %d", ev.Iter)
			}
		case "candidate":
			c.cands++
			if ev.Interval <= 0 {
				t.Errorf("candidate event with interval %g", ev.Interval)
			}
		case "span_start":
			if ev.Span == "adaptive_three_line" {
				c.spans++
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRunTracePerScenario runs every scenario with -trace and checks the
// NDJSON dump contains solver iteration events, each numbered from 1.
func TestRunTracePerScenario(t *testing.T) {
	for _, scenario := range []string{"linear", "threeline", "twoline", "circle"} {
		t.Run(scenario, func(t *testing.T) {
			if c := runTrace(t, scenario); c.iters == 0 {
				t.Error("trace has no irls_iter events")
			}
		})
	}
}

// TestRunTraceWritesNDJSON is the acceptance check for the offline trace of
// the adaptive three-line calibration: the threeline dump holds one
// adaptive_three_line span with one candidate event per (range, interval)
// cell of the sweep, alongside the per-IRWLS-iteration events.
func TestRunTraceWritesNDJSON(t *testing.T) {
	c := runTrace(t, "threeline")
	if c.iters == 0 {
		t.Error("trace has no irls_iter events")
	}
	if c.spans != 1 {
		t.Errorf("trace has %d adaptive_three_line spans, want 1", c.spans)
	}
	// The sweep covers 3 scan ranges × the default intervals.
	if want := 3 * len(calib.DefaultIntervals); c.cands != want {
		t.Errorf("trace has %d candidate events, want %d", c.cands, want)
	}
}
