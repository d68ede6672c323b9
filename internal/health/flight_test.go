package health

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/obs"
)

func rec(tag string, seq uint64, t time.Duration) TraceRecord {
	return TraceRecord{
		Tag: tag, Seq: seq, Time: t, Window: 32,
		Events: []obs.Event{{Kind: obs.KindSpanStart, Span: "solve"}},
	}
}

func TestFlightRecorderRingEviction(t *testing.T) {
	f := newFlightRecorder(3, 8)
	for i := 0; i < 5; i++ {
		f.Record(rec("T1", uint64(i), time.Duration(i)*time.Second))
	}
	got := f.Tag("T1")
	if len(got) != 3 {
		t.Fatalf("ring holds %d records, want 3", len(got))
	}
	var seqs []uint64
	for _, r := range got {
		seqs = append(seqs, r.Seq)
	}
	if !reflect.DeepEqual(seqs, []uint64{2, 3, 4}) {
		t.Errorf("retained seqs = %v, want oldest-first [2 3 4]", seqs)
	}
	if f.Len() != 3 {
		t.Errorf("Len = %d, want 3", f.Len())
	}
	if f.Tag("missing") != nil {
		t.Error("unknown tag returned records")
	}
}

func TestFlightRecorderTagLRUEviction(t *testing.T) {
	f := newFlightRecorder(2, 3)
	f.Record(rec("T1", 1, 1*time.Second))
	f.Record(rec("T2", 2, 2*time.Second))
	f.Record(rec("T3", 3, 3*time.Second))
	// T1 gets fresher than T2.
	f.Record(rec("T1", 4, 4*time.Second))
	// A fourth tag evicts the stalest (T2).
	f.Record(rec("T4", 5, 5*time.Second))
	want := []string{"T1", "T3", "T4"}
	if got := f.Tags(); !reflect.DeepEqual(got, want) {
		t.Errorf("Tags = %v, want %v", got, want)
	}
	if f.Tag("T2") != nil {
		t.Error("evicted tag still has records")
	}
}

func TestFlightRecorderMemoryBound(t *testing.T) {
	f := newFlightRecorder(4, 16)
	for i := 0; i < 500; i++ {
		f.Record(rec(fmt.Sprintf("T%d", i%40), uint64(i), time.Duration(i)*time.Millisecond))
	}
	if got := len(f.Tags()); got != 16 {
		t.Errorf("tag count = %d, want bound 16", got)
	}
	if got := f.Len(); got > 4*16 {
		t.Errorf("Len = %d, exceeds depth×maxTags bound %d", got, 4*16)
	}
}

func TestMonitorFlightIntegration(t *testing.T) {
	m, err := New(Config{
		Rules: []Rule{{
			Name: "residual_static", Signal: SignalResidual, Kind: KindStatic,
			Threshold: 1, HoldDown: time.Second, Severity: SevWarning,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	solve := func(t time.Duration, residual float64, seq uint64) SolveObservation {
		o := solveAt(t, residual)
		o.Seq = seq
		o.Trace = []obs.Event{{Kind: obs.KindSpanStart, Span: "solve"}}
		return o
	}
	m.ObserveSolve(solve(1*time.Second, 0.1, 1))
	m.ObserveSolve(solve(2*time.Second, 5, 2)) // pending
	m.ObserveSolve(solve(3*time.Second, 6, 3)) // fires, evidence snapshot
	f := findAlert(m.Alerts(), "residual_static", StateFiring)
	if f == nil {
		t.Fatalf("no firing alert: %+v", m.Alerts())
	}
	if len(f.Evidence) != 3 {
		t.Fatalf("evidence holds %d traces, want 3", len(f.Evidence))
	}
	// The newest evidence record is the solve that confirmed the alert.
	last := f.Evidence[len(f.Evidence)-1]
	if last.Seq != 3 || len(last.Events) != 1 {
		t.Errorf("confirming evidence = %+v", last)
	}
	// The live recorder keeps rolling past the snapshot.
	for seq := uint64(4); seq <= flightDepth+1; seq++ {
		m.ObserveSolve(solve(time.Duration(seq)*time.Second, 0.1, seq))
	}
	if got := m.Flight("T1"); len(got) != flightDepth || got[0].Seq != 2 {
		t.Errorf("Flight = %+v, want %d records from seq 2", got, flightDepth)
	}
	if got := m.FlightTags(); !reflect.DeepEqual(got, []string{"T1"}) {
		t.Errorf("FlightTags = %v", got)
	}
	// Evidence snapshot is unchanged by later records.
	if f.Evidence[len(f.Evidence)-1].Seq != 3 {
		t.Error("evidence mutated after snapshot")
	}
}

func TestMonitorFailedSolveRecordedWithoutTrace(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	o := solveAt(1*time.Second, 0)
	o.Failed, o.Err = true, "rank deficient"
	m.ObserveSolve(o)
	got := m.Flight("T1")
	if len(got) != 1 || got[0].Err != "rank deficient" {
		t.Fatalf("failed solve not recorded: %+v", got)
	}
}

// TestTagEvictionTieBreaksBySmallestID: tags touched at one stream time tie
// for eviction (the monitor stamps every tag solved from one ingest frame
// with the same logical clock). The victim must be the smallest tag id in
// every fresh instance, never whatever map iteration visits first.
func TestTagEvictionTieBreaksBySmallestID(t *testing.T) {
	want := []string{"T2", "T3"}
	for run := 0; run < 64; run++ {
		f := newFlightRecorder(1, 2)
		for _, tag := range []string{"T2", "T1", "T3"} {
			f.Record(rec(tag, 1, time.Second))
		}
		if got := f.Tags(); !reflect.DeepEqual(got, want) {
			t.Fatalf("flight recorder run %d kept %v, want %v", run, got, want)
		}

		m, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		tags := []string{"T002", "T001"}
		for i := 3; i <= maxTags+1; i++ {
			tags = append(tags, fmt.Sprintf("T%03d", i))
		}
		for _, tag := range tags {
			o := solveAt(time.Second, 0.1)
			o.Tag = tag
			m.ObserveSolve(o)
		}
		for _, tag := range tags {
			kept := m.Series(tag, SignalResidual) != nil
			if kept != (tag != "T001") {
				t.Fatalf("monitor run %d: tag %s kept=%v, want only T001 evicted", run, tag, kept)
			}
		}
	}
}
