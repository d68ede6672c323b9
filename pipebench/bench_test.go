package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the tests check the harness against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// short runs a workload briefly: two set-ups, a 20-frame fixed-work prefix
// and a fraction of a second of timed frames.
func short(t *testing.T, name string, trace bool) *result {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := run(w, options{seed: 7, seconds: 0.2, setups: 2, prefix: 20, trace: trace})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r
}

func checkMetrics(t *testing.T, label string, got []metric, want []specMetric) {
	t.Helper()
	units := map[string]string{}
	var names []string
	for _, m := range got {
		units[m.name] = m.unit
		names = append(names, m.name)
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) || m.value <= 0 {
			t.Errorf("%s: %s = %v, want a positive finite value", label, m.name, m.value)
		}
	}
	var wantNames []string
	for _, m := range want {
		wantNames = append(wantNames, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", label, m.Name, units[m.Name], m.Unit)
		}
	}
	sort.Strings(names)
	sort.Strings(wantNames)
	if !reflect.DeepEqual(names, wantNames) {
		t.Errorf("%s: metrics %v, BENCHMARK.json names %v", label, names, wantNames)
	}
}

// TestBenchmarkWorkloads runs every workload BENCHMARK.json lists, untraced
// and traced, and checks the correctness gate, the failure accounting, and
// that the metrics printed are exactly the ones BENCHMARK.json names.
func TestBenchmarkWorkloads(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json lists %d workloads", len(s.Workloads))
	}
	for _, wl := range s.Workloads {
		for _, trace := range []bool{false, true} {
			r := short(t, wl.Name, trace)
			label := wl.Name
			want := s.EndToEnd
			if trace {
				label += " traced"
				want = s.PerLayer
			}
			if !r.correct || r.failed != 0 || r.attempted < 1 {
				t.Errorf("%s: correct=%v failed=%d attempted=%d\n%s", label, r.correct, r.failed, r.attempted,
					strings.Join(r.notes, "\n"))
			}
			checkMetrics(t, label, r.metrics, want)
		}
	}
}

// TestIncrementalGate holds conveyor-incremental to the same gate: its slide
// estimates must stay within core.LineSession's documented bound of the
// batch solve. It fails while LineSession exceeds that bound (README.md,
// "Known defect"), which is why the workload is not in BENCHMARK.json.
func TestIncrementalGate(t *testing.T) {
	r := short(t, "conveyor-incremental", false)
	if !r.correct {
		t.Errorf("conveyor-incremental fails its correctness gate:\n%s", strings.Join(r.notes, "\n"))
	}
}

// TestCLIOutput checks the output contract: the last line of
// standard output is one JSON object with exactly the four keys, and a bad
// flag exits non-zero without a result.
func TestCLIOutput(t *testing.T) {
	var out bytes.Buffer
	code, err := cli([]string{"--workload", "conveyor", "--seed", "3", "--seconds", "0.2", "--trace", "0"}, &out)
	if code != 0 || err != nil {
		t.Fatalf("exit %d: %v\n%s", code, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("keys %v, want %v", keys, want)
	}
	out.Reset()
	if code, _ := cli([]string{"--workload", "nope"}, &out); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, output %q", code, out.String())
	}
}

// TestSeedDeterminism checks that a seed fixes the input bytes and the
// accuracy figures, and that another seed changes them.
func TestSeedDeterminism(t *testing.T) {
	w, err := lookupWorkload("portal")
	if err != nil {
		t.Fatal(err)
	}
	get := func(seed int64) (string, float64, float64) {
		r, err := run(w, options{seed: seed, seconds: 0.1, setups: 1, prefix: 250})
		if err != nil {
			t.Fatal(err)
		}
		var p50, p90 float64
		for _, m := range r.metrics {
			switch m.name {
			case "pos_err_p50_cm":
				p50 = m.value
			case "pos_err_p90_cm":
				p90 = m.value
			}
		}
		note := r.notes[0]
		return note[strings.Index(note, "sha256"):], p50, p90
	}
	h1, a1, b1 := get(5)
	h2, a2, b2 := get(5)
	h3, _, _ := get(6)
	if h1 != h2 || a1 != a2 || b1 != b2 {
		t.Errorf("same seed differs:\n%s %v %v\n%s %v %v", h1, a1, b1, h2, a2, b2)
	}
	if h1 == h3 {
		t.Errorf("seeds 5 and 6 replay the same input: %s", h1)
	}
}
