package health

import (
	"fmt"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/geom"
)

// TestNilMonitorZeroOverhead pins the disabled-monitor contract: feeding a
// nil *Monitor allocates nothing, like the nil *obs.SpanLog.
func TestNilMonitorZeroOverhead(t *testing.T) {
	var m *Monitor
	pos := geom.V3(1, 2, 3)
	o := SolveObservation{Tag: "T1", Time: time.Second, Condition: 10}
	allocs := testing.AllocsPerRun(1000, func() {
		m.ObserveSample("A1", time.Second, pos, 1.0)
		m.ObserveDrop(time.Second)
		m.ObserveSolve(o)
		_ = m.CriticalFiring()
	})
	if allocs != 0 {
		t.Errorf("nil monitor allocated %v per run, want 0", allocs)
	}
}

// TestObserveSolveNewTagsZeroAllocs feeds the default rule set one solve
// each of 1,000 tags it has never seen, as a dock-door portal does: the
// monitor keeps no per-tag state, so a new tag costs no allocation.
func TestObserveSolveNewTagsZeroAllocs(t *testing.T) {
	m, err := New(Config{Calibrations: []Calibration{testCalibration()}})
	if err != nil {
		t.Fatal(err)
	}
	tags := make([]string, 1000)
	for i := range tags {
		tags[i] = fmt.Sprintf("T%04d", i)
	}
	next := 0
	// AllocsPerRun makes one warm-up call before the measured ones, so
	// len(tags)-1 runs give every call a distinct tag.
	allocs := testing.AllocsPerRun(len(tags)-1, func() {
		m.ObserveSolve(SolveObservation{
			Tag: tags[next], Time: time.Duration(next) * time.Millisecond, Condition: 10,
		})
		next++
	})
	if next != len(tags) {
		t.Fatalf("observed %d tags, want %d", next, len(tags))
	}
	if allocs != 0 {
		t.Errorf("ObserveSolve allocated %v per new tag, want 0", allocs)
	}
}

func BenchmarkObserveSampleMonitored(b *testing.B) {
	m, err := New(Config{Calibrations: []Calibration{testCalibration()}})
	if err != nil {
		b.Fatal(err)
	}
	pos := geom.V3(0.5, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ObserveSample("A1", time.Duration(i), pos, 1.0)
	}
}

func BenchmarkObserveSolveMonitored(b *testing.B) {
	m, err := New(Config{Calibrations: []Calibration{testCalibration()}})
	if err != nil {
		b.Fatal(err)
	}
	o := SolveObservation{Tag: "T1", Condition: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Time = time.Duration(i) * time.Millisecond
		m.ObserveSolve(o)
	}
}

func BenchmarkObserveSolveNil(b *testing.B) {
	var m *Monitor
	o := SolveObservation{Tag: "T1", Condition: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ObserveSolve(o)
	}
}
