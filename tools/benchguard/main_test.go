package main

import (
	"github.com/rfid-lion/lion/internal/benchfmt"

	"os"
	"path/filepath"
	"strings"
	"testing"
)

func snap(benchmarks ...benchfmt.Bench) *benchfmt.Snapshot {
	return &benchfmt.Snapshot{Schema: "lionbench/1", Benchmarks: benchmarks}
}

func TestCompareCleanPass(t *testing.T) {
	base := snap(
		benchfmt.Bench{Name: "locate_2d_line", NsPerOp: 50000, AllocsPerOp: 100},
		benchfmt.Bench{Name: "stream_resolve_incremental", NsPerOp: 8000, AllocsPerOp: 0},
	)
	cur := snap(
		benchfmt.Bench{Name: "locate_2d_line", NsPerOp: 54000, AllocsPerOp: 100},
		benchfmt.Bench{Name: "stream_resolve_incremental", NsPerOp: 8500, AllocsPerOp: 0},
	)
	guard := map[string]bool{"locate_2d_line": true, "stream_resolve_incremental": true}
	if f := compare(base, cur, 0.10, guard); len(f) != 0 {
		t.Fatalf("unexpected findings: %v", f)
	}
}

func TestCompareNsRegression(t *testing.T) {
	base := snap(benchfmt.Bench{Name: "locate_2d_line", NsPerOp: 50000, AllocsPerOp: 100})
	cur := snap(benchfmt.Bench{Name: "locate_2d_line", NsPerOp: 56000, AllocsPerOp: 100})
	guard := map[string]bool{"locate_2d_line": true}
	f := compare(base, cur, 0.10, guard)
	if len(f) != 1 || !strings.Contains(f[0], "ns/op") {
		t.Fatalf("want one ns/op finding, got %v", f)
	}
	// The same shift on an unguarded name passes: wall clock is only policed
	// where latency is a product requirement.
	if f := compare(base, cur, 0.10, nil); len(f) != 0 {
		t.Fatalf("unguarded ns shift flagged: %v", f)
	}
}

func TestCompareAllocRegression(t *testing.T) {
	base := snap(
		benchfmt.Bench{Name: "locate_2d_line", NsPerOp: 50000, AllocsPerOp: 100},
		benchfmt.Bench{Name: "stream_resolve_incremental", NsPerOp: 8000, AllocsPerOp: 0},
	)
	cur := snap(
		benchfmt.Bench{Name: "locate_2d_line", NsPerOp: 50000, AllocsPerOp: 112},
		benchfmt.Bench{Name: "stream_resolve_incremental", NsPerOp: 8000, AllocsPerOp: 1},
	)
	f := compare(base, cur, 0.10, nil)
	if len(f) != 2 {
		t.Fatalf("want two allocs/op findings (every name guarded, zero baseline "+
			"fails on the first allocation), got %v", f)
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	base := snap(
		benchfmt.Bench{Name: "locate_2d_line", NsPerOp: 50000, AllocsPerOp: 100},
		benchfmt.Bench{Name: "stream_resolve_incremental", NsPerOp: 8000, AllocsPerOp: 0},
	)
	cur := snap(benchfmt.Bench{Name: "locate_2d_line", NsPerOp: 50000, AllocsPerOp: 100})
	f := compare(base, cur, 0.10, nil)
	if len(f) != 1 || !strings.Contains(f[0], "missing") {
		t.Fatalf("want one missing-benchmark finding, got %v", f)
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", `{"schema":"lionbench/1","benchmarks":[
		{"name":"locate_2d_line","ns_per_op":50000,"allocs_per_op":100}]}`)
	good := write("good.json", `{"schema":"lionbench/1","benchmarks":[
		{"name":"locate_2d_line","ns_per_op":51000,"allocs_per_op":100}]}`)
	bad := write("bad.json", `{"schema":"lionbench/1","benchmarks":[
		{"name":"locate_2d_line","ns_per_op":90000,"allocs_per_op":100}]}`)

	var out strings.Builder
	if err := run([]string{"-baseline", base, "-current", good}, &out); err != nil {
		t.Fatalf("clean comparison failed: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := run([]string{"-baseline", base, "-current", bad}, &out); err == nil {
		t.Fatalf("regressed comparison passed:\n%s", out.String())
	}
	if err := run([]string{"-baseline", base}, &out); err == nil {
		t.Fatal("missing -current accepted")
	}
	// No default baseline: a stale default would guard against the wrong
	// snapshot without saying so.
	if err := run([]string{"-current", good}, &out); err == nil || !strings.Contains(err.Error(), "-baseline is required") {
		t.Fatalf("missing -baseline: err = %v, want \"-baseline is required\"", err)
	}
	if err := run([]string{"-baseline", base, "-current", write("junk.json", "{")}, &out); err == nil {
		t.Fatal("malformed current snapshot accepted")
	}
	if err := run([]string{"-baseline", base, "-current",
		write("wrong.json", `{"schema":"other/1","benchmarks":[]}`)}, &out); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

func TestCompareMacroTargets(t *testing.T) {
	base := snap()
	base.Macro = []benchfmt.Macro{
		{Name: "portal/ingest_p99_seconds", Scenario: "portal", Metric: "ingest_p99_seconds",
			Value: 0.040, Target: 0.250, Unit: "seconds"},
		{Name: "portal/drop_rate", Scenario: "portal", Metric: "drop_rate",
			Value: 0, Target: 0.01, Unit: "ratio"},
		{Name: "portal/trend_only", Scenario: "portal", Metric: "trend_only",
			Value: 123, Unit: "seconds"}, // no target: recorded, never guarded
	}

	// A lionbench-only current snapshot (no macro section) only guards the
	// baseline's own targets.
	if f := compareMacro(base, snap()); len(f) != 0 {
		t.Fatalf("clean baseline flagged: %v", f)
	}

	// Baseline over its own target fails even with no current macro section:
	// the committed snapshot of record must meet its SLOs.
	over := snap()
	over.Macro = []benchfmt.Macro{{Name: "portal/ingest_p99_seconds", Scenario: "portal",
		Metric: "ingest_p99_seconds", Value: 0.300, Target: 0.250, Unit: "seconds"}}
	if f := compareMacro(over, snap()); len(f) != 1 || !strings.Contains(f[0], "over target") {
		t.Fatalf("want one over-target finding, got %v", f)
	}

	// A macro-carrying current snapshot is held to the same target rule and
	// to baseline coverage.
	cur := snap()
	cur.Macro = []benchfmt.Macro{{Name: "portal/ingest_p99_seconds", Scenario: "portal",
		Metric: "ingest_p99_seconds", Value: 0.400, Target: 0.250, Unit: "seconds"}}
	f := compareMacro(base, cur)
	var overTarget, missing int
	for _, s := range f {
		if strings.Contains(s, "over target") {
			overTarget++
		}
		if strings.Contains(s, "missing") {
			missing++
		}
	}
	if overTarget != 1 || missing != 2 {
		t.Fatalf("want 1 over-target + 2 missing-coverage findings, got %v", f)
	}
}

func TestRunMacroEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", `{"schema":"lionbench/1","benchmarks":[],
		"macro":[{"name":"portal/ingest_p99_seconds","scenario":"portal",
		"metric":"ingest_p99_seconds","value":0.3,"target":0.25,"unit":"seconds"}]}`)
	cur := write("cur.json", `{"schema":"lionbench/1","benchmarks":[]}`)
	var out strings.Builder
	if err := run([]string{"-baseline", base, "-current", cur}, &out); err == nil {
		t.Fatalf("over-target macro baseline passed:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-baseline", base, "-current", cur, "-macro=false"}, &out); err != nil {
		t.Fatalf("-macro=false still guarded: %v\n%s", err, out.String())
	}
}
