package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestRunnersCoverEveryExperiment(t *testing.T) {
	want := []string{
		"fig2", "fig3", "fig4", "fig6", "fig9", "fig13",
		"fig14a", "fig14b", "fig15", "fig16-17", "fig18",
		"fig19-20", "fig21", "ablation",
	}
	rs := runners()
	if len(rs) != len(want) {
		t.Fatalf("%d runners, want %d", len(rs), len(want))
	}
	for i, w := range want {
		if rs[i].name != w {
			t.Errorf("runner %d = %q, want %q", i, rs[i].name, w)
		}
	}
}

func TestRunSelectedExperiments(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-fast", "-only", "fig2,fig21"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "Fig. 2") {
		t.Error("fig2 table missing")
	}
	if !strings.Contains(text, "Fig. 21") {
		t.Error("fig21 table missing")
	}
	if strings.Contains(text, "Fig. 13") {
		t.Error("unselected fig13 ran")
	}
}

func TestRunWritesReportFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.txt")
	var out strings.Builder
	if err := run([]string{"-fast", "-only", "fig2", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Fig. 2") {
		t.Error("report file missing content")
	}
}

// TestRunWorkersEquivalence runs the same experiment at GOMAXPROCS 1 and 4;
// the rendered error columns must be identical (solver-time columns vary,
// so compare a figure whose table has no timing column).
func TestRunWorkersEquivalence(t *testing.T) {
	var serial, parallel strings.Builder
	runAt := func(procs int, out *strings.Builder) error {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return run([]string{"-fast", "-only", "fig21"}, out)
	}
	if err := runAt(1, &serial); err != nil {
		t.Fatal(err)
	}
	if err := runAt(4, &parallel); err != nil {
		t.Fatal(err)
	}
	stripTiming := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, "completed in") || strings.HasPrefix(line, "total:") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if stripTiming(serial.String()) != stripTiming(parallel.String()) {
		t.Error("serial and 4-worker runs rendered different tables")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunProfileWritesPprof checks the -profile flag produces both profile
// files in pprof's gzip container format.
func TestRunProfileWritesPprof(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "bench")
	var out strings.Builder
	if err := run([]string{"-profile", prefix, "-fast", "-only", "fig21"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".cpu.pprof", ".heap.pprof"} {
		data, err := os.ReadFile(prefix + suffix)
		if err != nil {
			t.Fatalf("%s: %v", suffix, err)
		}
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Errorf("%s is not a gzip-compressed profile", suffix)
		}
	}
}
