package health

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/obs"
)

// traced is one successful traced solve of tag at stream time t.
func traced(tag string, seq uint64, t time.Duration) SolveObservation {
	o := solveAt(t, 0.1)
	o.Tag, o.Seq = tag, seq
	o.Trace = []obs.Event{{Kind: obs.KindSpanStart, Span: "solve"}}
	return o
}

// seqs returns the records' sequence numbers in order.
func seqs(recs []TraceRecord) []uint64 {
	var out []uint64
	for _, r := range recs {
		out = append(out, r.Seq)
	}
	return out
}

// flightTags returns the distinct tags with records in the flight ring,
// sorted.
func flightTags(m *Monitor) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var tags []string
	for i := 0; i < m.flight.Len(); i++ {
		tags = append(tags, m.flight.At(i).Tag)
	}
	slices.Sort(tags)
	return slices.Compact(tags)
}

// TestFlightRecorderRingEviction: a tag's flight is capped at its
// flightDepth newest records, oldest first.
func TestFlightRecorderRingEviction(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		m.ObserveSolve(traced("T1", uint64(i), time.Duration(i)*time.Second))
	}
	want := []uint64{12, 13, 14, 15, 16, 17, 18, 19}
	if got := seqs(m.Flight("T1")); !reflect.DeepEqual(got, want) {
		t.Errorf("retained seqs = %v, want oldest-first %v", got, want)
	}
	if m.Flight("missing") != nil {
		t.Error("unknown tag returned records")
	}
}

// TestFlightRecorderKeepsRecentTags: the recorder keeps the newest flightCap
// solves whatever the fleet size. 256 tags solving round-robin all keep a
// record and fill the ring; 16 tags keep exactly their flightDepth newest.
func TestFlightRecorderKeepsRecentTags(t *testing.T) {
	for _, tc := range []struct{ tags, rounds int }{{256, 12}, {16, 40}} {
		m, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		var seq uint64
		for r := 0; r < tc.rounds; r++ {
			for i := 0; i < tc.tags; i++ {
				m.ObserveSolve(traced(fmt.Sprintf("T%03d", i), seq, time.Duration(seq)*time.Millisecond))
				seq++
			}
		}
		if got := len(flightTags(m)); got != tc.tags {
			t.Errorf("%d tags: the flight ring holds %d tags", tc.tags, got)
		}
		if got := m.flight.Len(); got != flightCap {
			t.Errorf("%d tags: %d records retained, want %d", tc.tags, got, flightCap)
		}
		for i := 0; i < tc.tags; i++ {
			got := seqs(m.Flight(fmt.Sprintf("T%03d", i)))
			if len(got) == 0 {
				t.Fatalf("%d tags: tag %d has no record", tc.tags, i)
			}
			if tc.tags > flightCap/flightDepth {
				continue
			}
			var want []uint64
			for r := tc.rounds - flightDepth; r < tc.rounds; r++ {
				want = append(want, uint64(r*tc.tags+i))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d tags: tag %d kept %v, want %v", tc.tags, i, got, want)
			}
		}
	}
}

// TestFlightRecorderMemoryBound: however many tags solve, the recorder
// holds at most flightCap records and no tag's flight exceeds flightDepth.
func TestFlightRecorderMemoryBound(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		m.ObserveSolve(traced(fmt.Sprintf("T%d", i*i%700), uint64(i), time.Duration(i)*time.Millisecond))
	}
	if got := m.flight.Len(); got != flightCap {
		t.Errorf("Len = %d, want bound %d", got, flightCap)
	}
	total := 0
	for _, tag := range flightTags(m) {
		n := len(m.Flight(tag))
		if n == 0 || n > flightDepth {
			t.Errorf("tag %s: Flight holds %d records, want 1..%d", tag, n, flightDepth)
		}
		total += n
	}
	if total > flightCap {
		t.Errorf("flights hold %d records, exceeding the ring bound %d", total, flightCap)
	}
}

func TestMonitorFlightIntegration(t *testing.T) {
	m, err := New(Config{
		Rules: []Rule{{
			Name: "condition_static", Signal: SignalCondition,
			Threshold: 1, HoldDown: time.Second, Severity: SevWarning,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	solve := func(t time.Duration, condition float64, seq uint64) SolveObservation {
		o := solveAt(t, condition)
		o.Seq = seq
		o.Trace = []obs.Event{{Kind: obs.KindSpanStart, Span: "solve"}}
		return o
	}
	m.ObserveSolve(solve(1*time.Second, 0.1, 1))
	m.ObserveSolve(solve(2*time.Second, 5, 2)) // pending
	m.ObserveSolve(solve(3*time.Second, 6, 3)) // fires, evidence snapshot
	f := findAlert(m.Alerts(), "condition_static", StateFiring)
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
	if got := flightTags(m); !reflect.DeepEqual(got, []string{"T1"}) {
		t.Errorf("flight ring tags = %v", got)
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
