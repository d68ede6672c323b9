package load

import (
	"strings"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/obs"
)

// fakeResult builds a result with a controlled latency distribution and
// scrape summary.
func fakeResult(t *testing.T, latencies []float64, scrape ScrapeSummary) *Result {
	t.Helper()
	sc, err := Lookup("smoke")
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(sc.Phases, time.Second)
	for i, l := range latencies {
		rec.Record(i%len(sc.Phases), time.Duration(l*float64(time.Second)),
			time.Duration(i)*time.Millisecond, 10, 10, 0, false, false)
	}
	if scrape.Dims == nil {
		scrape.Dims = map[string]*DimSummary{}
	}
	return &Result{
		Scenario: sc,
		Target:   "http://test",
		Rate:     500,
		Duration: time.Second,
		Elapsed:  time.Second,
		Batch:    10,
		Workers:  1,
		Recorder: rec,
		Scrape:   scrape,
	}
}

func manyFast(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.002
	}
	return out
}

func TestEvaluatePasses(t *testing.T) {
	res := fakeResult(t, manyFast(200), ScrapeSummary{
		Dims: map[string]*DimSummary{
			"staleness_seconds":      {WorstP99: 0.5, Last: obs.Quantiles{P99: 0.5, Count: 10}},
			"ingest_request_seconds": {WorstP99: 0.003, Last: obs.Quantiles{P99: 0.003, Count: 10}},
		},
		Scrapes: 3,
	})
	v := Evaluate(res)
	if !v.Pass {
		t.Fatalf("clean run failed: %+v", v.failures())
	}
	names := map[string]bool{}
	for _, c := range v.Checks {
		names[c.Name] = true
	}
	for _, want := range []string{"ingest_p50", "ingest_p95", "ingest_p99",
		"drop_rate", "error_rate", "staleness_p99", "alert_latency", "p99_agreement"} {
		if !names[want] {
			t.Errorf("check %s missing from verdict", want)
		}
	}
}

func TestEvaluateFailsSlowTail(t *testing.T) {
	lats := manyFast(200)
	for i := 190; i < 200; i++ {
		lats[i] = 2.0 // 5% of batches at 2s blows the 500ms p99
	}
	v := Evaluate(fakeResult(t, lats, ScrapeSummary{}))
	if v.Pass {
		t.Fatal("2s tail passed the verdict")
	}
	found := false
	for _, c := range v.failures() {
		if c.Name == "ingest_p99" {
			found = true
		}
	}
	if !found {
		t.Fatalf("ingest_p99 not among failures: %+v", v.failures())
	}
}

func TestEvaluateFailsDrops(t *testing.T) {
	res := fakeResult(t, manyFast(100), ScrapeSummary{})
	// Re-record with drops: 5% dropped against a 1% budget.
	rec := NewRecorder(res.Scenario.Phases, time.Second)
	for i := 0; i < 100; i++ {
		dropped := 0
		if i < 5 {
			dropped = 10
		}
		rec.Record(0, 2*time.Millisecond, time.Duration(i)*time.Millisecond,
			10, 10-dropped, dropped, false, false)
	}
	res.Recorder = rec
	v := Evaluate(res)
	if v.Pass {
		t.Fatal("5% drop rate passed a 1% budget")
	}
}

func TestEvaluateAgreement(t *testing.T) {
	// Server claims a p99 wildly above the client's: instrumentation lies.
	res := fakeResult(t, manyFast(200), ScrapeSummary{
		Dims: map[string]*DimSummary{
			"ingest_request_seconds": {WorstP99: 5, Last: obs.Quantiles{P99: 5, Count: 10}},
		},
	})
	v := Evaluate(res)
	var agree *Check
	for i := range v.Checks {
		if v.Checks[i].Name == "p99_agreement" {
			agree = &v.Checks[i]
		}
	}
	if agree == nil || agree.Skipped || agree.OK {
		t.Fatalf("divergent server p99 not failed: %+v", agree)
	}
	// Without the server dimension the check is skipped, not failed.
	v = Evaluate(fakeResult(t, manyFast(200), ScrapeSummary{}))
	for _, c := range v.Checks {
		if c.Name == "p99_agreement" && !c.Skipped {
			t.Fatalf("agreement scored without server data: %+v", c)
		}
	}
	if !v.Pass {
		t.Fatalf("skipped agreement failed the verdict: %+v", v.failures())
	}
}

func TestReportAndMacro(t *testing.T) {
	res := fakeResult(t, manyFast(200), ScrapeSummary{
		Dims: map[string]*DimSummary{
			"staleness_seconds": {WorstP99: 0.4, Last: obs.Quantiles{P50: 0.1, P95: 0.3, P99: 0.4, Count: 7}},
		},
		Scrapes:      2,
		AlertSeen:    true,
		AlertLatency: 1.25,
	})
	v := Evaluate(res)
	var b strings.Builder
	Report(&b, res, v)
	out := b.String()
	for _, want := range []string{"smoke", "verdict", "staleness_seconds",
		"worst latency per second", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	macro := Macro(res, v)
	if len(macro) < 5 {
		t.Fatalf("macro section has %d entries: %+v", len(macro), macro)
	}
	byName := map[string]bool{}
	for _, m := range macro {
		byName[m.Name] = true
		if m.Scenario != "smoke" {
			t.Errorf("macro %s carries scenario %q", m.Name, m.Scenario)
		}
		if !m.Pass() {
			t.Errorf("macro %s over its own target: %+v", m.Name, m)
		}
	}
	for _, want := range []string{"smoke/ingest_p99", "smoke/drop_rate", "smoke/achieved_rate"} {
		if !byName[want] {
			t.Errorf("macro entry %s missing", want)
		}
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline([]float64{0, 0.5, 1}); got != "▁▄█" {
		t.Fatalf("sparkline = %q", got)
	}
	if got := sparkline([]float64{0, 0}); got != "▁▁" {
		t.Fatalf("all-zero sparkline = %q", got)
	}
}
