package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write lays a fixture tree under a temp root and returns the root.
func write(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestLintCleanTree(t *testing.T) {
	root := write(t, map[string]string{
		"DESIGN.md": "lion_jobs_total lion_queue_depth lion_drops_total\n",
		"pkg/a.go": `package a

func setup(reg *Registry, kinds []string) {
	reg.Counter("lion_jobs_total", "Jobs.")
	reg.GaugeVec("lion_queue_depth", "Depth.", "worker")
	vec := reg.CounterVec("lion_drops_total", "Drops.", "reason")
	vec.With("overflow").Inc()
	for _, k := range kinds {
		// metriclint:bounded kinds is a fixed config set
		vec.With(k).Inc()
	}
}
`,
	})
	rep, err := lint(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.issues) != 0 {
		t.Errorf("issues on clean tree: %v", rep.issues)
	}
	if len(rep.metrics) != 3 {
		t.Errorf("metrics = %v, want 3", rep.metrics)
	}
}

func TestLintViolations(t *testing.T) {
	root := write(t, map[string]string{
		"DESIGN.md": "lion_documented_total\n",
		"pkg/a.go": `package a

func setup(reg *Registry, label string) {
	reg.Counter("lion_BadName", "Bad case.")
	reg.Counter("lion_undocumented_total", "Missing from DESIGN.md.")
	reg.GaugeVec("lion_documented_total", "Bad label.", "1label")
	vec := reg.CounterVec("lion_documented_total", "Dup name, fine.", "reason")
	vec.With(label).Inc()
	// metriclint:bounded
	vec.With(label).Inc()
}
`,
	})
	rep, err := lint(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`metric "lion_BadName" does not match`,
		`metric "lion_BadName" is not documented`,
		`metric "lion_undocumented_total" is not documented`,
		`label "1label" does not match`,
		"dynamic label value in .With() without a",
		"marker needs a reason",
	} {
		found := false
		for _, issue := range rep.issues {
			if strings.Contains(issue, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing issue %q in %v", want, rep.issues)
		}
	}
	// 8 total: the reasonless marker is itself an issue AND does not bless
	// the .With below it, so that call is flagged too; lion_BadName also
	// fails the counter _total suffix rule.
	if len(rep.issues) != 8 {
		t.Errorf("got %d issues, want 8: %v", len(rep.issues), rep.issues)
	}
}

// TestLintUnitSuffixes pins the unit-suffix rule: counters need _total,
// histograms need _seconds or _bytes, gauges carry no suffix requirement.
func TestLintUnitSuffixes(t *testing.T) {
	root := write(t, map[string]string{
		"DESIGN.md": "lion_jobs lion_wait lion_batch_bytes lion_depth lion_ok_total lion_dur_seconds\n",
		"pkg/a.go": `package a

func setup(reg *Registry) {
	reg.Counter("lion_jobs", "Counter without _total.")
	reg.Histogram("lion_wait", "Histogram without a unit.", nil)
	reg.Histogram("lion_batch_bytes", "Size histogram, fine.", nil)
	reg.Gauge("lion_depth", "Gauge, exempt.")
	reg.Counter("lion_ok_total", "Fine.")
	reg.Histogram("lion_dur_seconds", "Fine.", nil)
}
`,
	})
	rep, err := lint(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`counter "lion_jobs" must end in _total`,
		`histogram "lion_wait" must end in _seconds or _bytes`,
	} {
		found := false
		for _, issue := range rep.issues {
			if strings.Contains(issue, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing issue %q in %v", want, rep.issues)
		}
	}
	if len(rep.issues) != 2 {
		t.Errorf("got %d issues, want 2: %v", len(rep.issues), rep.issues)
	}
}

// TestLintMarkerPlacement pins the marker's reach: its own line and the one
// below, nothing further.
func TestLintMarkerPlacement(t *testing.T) {
	root := write(t, map[string]string{
		"DESIGN.md": "lion_x_total\n",
		"pkg/a.go": `package a

func setup(reg *Registry, k string) {
	vec := reg.CounterVec("lion_x_total", "X.", "kind")
	vec.With(k).Inc() // metriclint:bounded inline marker works
	// metriclint:bounded marker one line up works

	vec.With(k).Inc()
}
`,
	})
	rep, err := lint(root)
	if err != nil {
		t.Fatal(err)
	}
	var issues int
	for _, issue := range rep.issues {
		if strings.Contains(issue, "dynamic label") {
			issues++
		}
	}
	// The inline marker covers line 5; the lead-in marker covers line 6-7 but
	// the second With sits on line 8, past the marker's reach.
	if issues != 1 {
		t.Errorf("got %d dynamic-label issues, want 1 (stale marker must not carry): %v",
			issues, rep.issues)
	}
}

// TestLintStaleInventoryRow: a section 9 inventory row whose metric no code
// registers is an issue; names outside the table, or in another section's
// table, are not.
func TestLintStaleInventoryRow(t *testing.T) {
	root := write(t, map[string]string{
		"DESIGN.md": "## 8. Before\n\n| `lion_elsewhere_total` | counter | not the inventory |\n\n" +
			"## 9. Observability\n\nProse names `lion_prose_total`.\n\n" +
			"| metric | type | meaning |\n|---|---|---|\n" +
			"| `lion_jobs_total` | counter | jobs |\n" +
			"| `lion_drops_total{reason}` | counter | drops |\n" +
			"| `lion_deleted_total{reason}` | counter | a metric whose code is gone |\n\n" +
			"## 10. After\n\n| `lion_later_total` | counter | not the inventory |\n",
		"pkg/a.go": `package a

func setup(reg *Registry) {
	reg.Counter("lion_jobs_total", "Jobs.")
	reg.CounterVec("lion_drops_total", "Drops.", "reason")
}
`,
	})
	rep, err := lint(root)
	if err != nil {
		t.Fatal(err)
	}
	want := `DESIGN.md: metric "lion_deleted_total" is in the inventory table but registered nowhere`
	if len(rep.issues) != 1 || rep.issues[0] != want {
		t.Errorf("issues = %v, want only %q", rep.issues, want)
	}
}

// TestLintRealTree runs the linter over the repository itself — the same
// invocation `make check` performs — so the contract holds on every commit.
func TestLintRealTree(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "DESIGN.md")); err != nil {
		t.Skip("repo root not found")
	}
	rep, err := lint(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.issues) != 0 {
		t.Errorf("repo tree has metric violations:\n%s", strings.Join(rep.issues, "\n"))
	}
	if len(rep.metrics) == 0 {
		t.Error("no metrics found in repo tree")
	}
}
