package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"github.com/rfid-lion/lion/internal/calib"
)

// explainSweep is each scenario's sweep size: the three scanning ranges ×
// the intervals for the structured scans, the intervals for one line, and
// the single Locate2D of the circle.
var explainSweep = map[string]int{
	"linear":    len(calib.DefaultIntervals),
	"threeline": 3 * len(calib.DefaultIntervals),
	"twoline":   3 * len(calib.DefaultIntervals),
	"circle":    1,
}

// explainRecord is one -explain line with every field the schema names;
// Position is a pointer so that a missing position shows.
type explainRecord struct {
	ScanRange     float64     `json:"scan_range_m"`
	Interval      float64     `json:"interval_m"`
	MeanResidual  float64     `json:"mean_residual"`
	Iterations    int         `json:"iterations"`
	FinalResidual float64     `json:"final_residual"`
	Position      *[3]float64 `json:"position"`
	Selected      bool        `json:"selected"`
	Error         string      `json:"error"`
}

var centerLine = regexp.MustCompile(`estimated center \(([^,]+), ([^,]+), ([^)]+)\)`)

// runExplain runs one scenario with -explain and returns its NDJSON records
// and the estimated center lionsim printed.
func runExplain(t *testing.T, scenario string) ([]explainRecord, [3]float64) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "explain.ndjson")
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	saved := os.Stderr
	os.Stderr = stderr
	err = run([]string{
		"-scenario", scenario, "-o", filepath.Join(dir, "scan.csv"), "-explain", path,
		"-span", "1.2", "-rate", "100",
	})
	os.Stderr = saved
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := stderr.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	printed, err := io.ReadAll(stderr)
	if err != nil {
		t.Fatal(err)
	}
	m := centerLine.FindSubmatch(printed)
	if m == nil {
		t.Fatalf("no estimated center in %q", printed)
	}
	var center [3]float64
	for i := range center {
		if center[i], err = strconv.ParseFloat(string(m[i+1]), 64); err != nil {
			t.Fatalf("center coordinate %q: %v", m[i+1], err)
		}
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var recs []explainRecord
	for dec.More() {
		var r explainRecord
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("line %d: %v", len(recs)+1, err)
		}
		recs = append(recs, r)
	}
	return recs, center
}

// TestRunTracePerScenario checks the sweep trace -explain writes for every
// scenario: one line per candidate, only schema fields, a position on every
// solved candidate, and the selected positions averaging to the printed
// center.
func TestRunTracePerScenario(t *testing.T) {
	for _, scenario := range []string{"linear", "threeline", "twoline", "circle"} {
		t.Run(scenario, func(t *testing.T) {
			recs, center := runExplain(t, scenario)
			if len(recs) != explainSweep[scenario] {
				t.Fatalf("%d lines, want one per candidate: %d", len(recs), explainSweep[scenario])
			}
			var sum [3]float64
			selected := 0
			for i, r := range recs {
				if (r.Error == "") != (r.Position != nil) {
					t.Fatalf("line %d: error %q with position %v", i+1, r.Error, r.Position)
				}
				if scenario != "circle" && r.Interval <= 0 {
					t.Errorf("line %d: interval %g", i+1, r.Interval)
				}
				if r.Error == "" && r.Iterations < 1 {
					t.Errorf("line %d: %d iterations of a weighted solve", i+1, r.Iterations)
				}
				if !r.Selected {
					continue
				}
				if r.Position == nil {
					t.Fatalf("line %d: selected without a position", i+1)
				}
				selected++
				for c := range sum {
					sum[c] += r.Position[c]
				}
			}
			if selected == 0 {
				t.Fatal("no candidate selected")
			}
			var d2 float64
			for c := range sum {
				d := sum[c]/float64(selected) - center[c]
				d2 += d * d
			}
			if d := math.Sqrt(d2); d > 1e-12 {
				t.Errorf("mean of %d selected positions is %g m from the printed center %v", selected, d, center)
			}
		})
	}
}

// TestRunTraceWritesNDJSON is the acceptance check for the offline trace of
// the adaptive three-line calibration: the threeline dump holds one line per
// (range, interval) cell of the sweep, each cell once, and every solved cell
// ran at least one weighted iteration.
func TestRunTraceWritesNDJSON(t *testing.T) {
	recs, _ := runExplain(t, "threeline")
	// The sweep covers 3 scan ranges × the default intervals.
	if want := 3 * len(calib.DefaultIntervals); len(recs) != want {
		t.Fatalf("trace has %d candidate lines, want %d", len(recs), want)
	}
	cells := map[[2]float64]bool{}
	for i, r := range recs {
		cell := [2]float64{r.ScanRange, r.Interval}
		if cells[cell] {
			t.Errorf("line %d: cell (range %g, interval %g) repeated", i+1, r.ScanRange, r.Interval)
		}
		cells[cell] = true
		if r.Interval <= 0 {
			t.Errorf("line %d: interval %g", i+1, r.Interval)
		}
		if r.Error == "" && r.Iterations < 1 {
			t.Errorf("line %d: %d iterations of a weighted solve", i+1, r.Iterations)
		}
	}
}
