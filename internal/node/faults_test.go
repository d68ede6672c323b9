package node

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/health"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/sim"
	"github.com/rfid-lion/lion/internal/stream"
	"github.com/rfid-lion/lion/internal/traject"
)

// faultAt is the stream time at which every fault row's fault starts. The
// 6 s of healthy conveyor traffic before it must raise no alert at all.
const faultAt = 6 * time.Second

// faultRow pairs one rule of health.DefaultRules with a real fault it must
// reveal: the rule must fire within bound of stream time after faultAt.
// DESIGN.md §10 carries the same table.
type faultRow struct {
	rule  string
	flags []string // liond flags beyond the shared ones
	bound time.Duration
	// inject rewrites the reads from faultAt on. r is the reader that
	// scanned the pass, for faults that need fresh reads.
	inject func(t *testing.T, r *sim.Reader, ant *sim.Antenna, tag *sim.Tag, reads []sim.Sample) []sim.Sample
}

// TestFaultRows drives liond's engine and monitor, built through the
// production flag path with health.DefaultRules, on a simulated conveyor
// pass: a tag crossing 4 m in front of a calibrated antenna at 0.25 m/s,
// read 100 times a second. Each row breaks the pass at faultAt in one way
// and requires its rule to fire in time.
//
// ill_conditioned has no row: a degenerate scan geometry fails the solve
// outright when positions are exact (solve_errors fires), and a tilted
// planar scan under -solver 3d with positions quantised at 1 mm to 0.1 µm
// reads condition estimates of 3e2 to 3e6, well under the 1e8 threshold
// (DESIGN.md §10).
func TestFaultRows(t *testing.T) {
	rows := []faultRow{{
		// An uncalibrated antenna or cable swap: every phase from faultAt on
		// carries an extra 0.05 λ of offset, above the 0.02 λ threshold.
		rule:  "calibration_drift",
		bound: 4 * time.Second,
		inject: func(_ *testing.T, _ *sim.Reader, _ *sim.Antenna, _ *sim.Tag, reads []sim.Sample) []sim.Sample {
			for i := range reads {
				if reads[i].Time >= faultAt {
					reads[i].Phase = rf.WrapPhase(reads[i].Phase + 0.05*4*math.Pi)
				}
			}
			return reads
		},
	}, {
		// The conveyor stops with the tag in view: reads keep arriving from
		// one spot, and once the moving reads age out of the window no
		// pair spans the 0.1 m pairing interval, so every solve fails.
		rule:  "solve_errors",
		bound: 6 * time.Second,
		inject: func(t *testing.T, r *sim.Reader, ant *sim.Antenna, tag *sim.Tag, reads []sim.Sample) []sim.Sample {
			cut := readsBefore(reads, faultAt)
			stopped, err := r.ReadStatic(ant, tag, reads[cut-1].TagPos, len(reads)-cut)
			if err != nil {
				t.Fatal(err)
			}
			for i := range stopped {
				stopped[i].Time += reads[cut].Time
			}
			return append(reads[:cut], stopped...)
		},
	}, {
		// The read rate collapses from 100 to 25 reads/s (a detuned tag, or
		// a reader sharing its time with other antennas). Under a 3 s
		// window span the 256-read window no longer fills by count, so
		// every read ages older ones out of it.
		rule:  "stream_drops",
		flags: []string{"-span", "3s"},
		bound: 8 * time.Second,
		inject: func(_ *testing.T, _ *sim.Reader, _ *sim.Antenna, _ *sim.Tag, reads []sim.Sample) []sim.Sample {
			cut := readsBefore(reads, faultAt)
			out := reads[:cut]
			for i := cut; i < len(reads); i += 4 {
				out = append(out, reads[i])
			}
			return out
		},
	}}
	for _, row := range rows {
		t.Run(row.rule, func(t *testing.T) {
			reader, ant, tag, reads := conveyorPass(t)
			reads = row.inject(t, reader, ant, tag, reads)
			pc := ant.PhaseCenter()
			flags := append([]string{
				"-intervals", "0.1", "-min", "64", "-workers", "1",
				"-cal-center", fmt.Sprintf("%g,%g,%g", pc.X, pc.Y, pc.Z),
				"-cal-offset", fmt.Sprint(ant.PhaseOffset + tag.PhaseOffset),
			}, row.flags...)
			seen := runFaultRow(t, flags, reads)
			var fired *health.Alert
			for i, a := range seen {
				if a.StartedAt < faultAt {
					t.Errorf("healthy traffic before the fault raised %s %s at %v", a.Rule, a.State, a.StartedAt)
				}
				if a.Rule == row.rule && a.State == health.StateFiring && fired == nil {
					fired = &seen[i]
				}
			}
			if fired == nil {
				t.Fatalf("%s never fired; transitions: %+v", row.rule, seen)
			}
			if d := fired.FiredAt - faultAt; d > row.bound {
				t.Errorf("%s fired %v after the fault, want within %v", row.rule, d, row.bound)
			}
			t.Logf("%s fired %v after the fault", row.rule, fired.FiredAt-faultAt)
		})
	}
}

// conveyorPass scans one healthy pass of a tag past a calibrated antenna.
func conveyorPass(t *testing.T) (*sim.Reader, *sim.Antenna, *sim.Tag, []sim.Sample) {
	t.Helper()
	env, err := sim.NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	reader, err := sim.NewReader(env, sim.ReaderConfig{RateHz: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ant := &sim.Antenna{
		PhysicalCenter:    geom.V3(0.1, 0.8, 0),
		PhaseCenterOffset: geom.V3(0.02, -0.015, 0),
		PhaseOffset:       2.74,
	}
	tag := &sim.Tag{PhaseOffset: 0.4}
	trj, err := traject.NewLinear(geom.V3(-2, 0, 0), geom.V3(2, 0, 0), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	reads, err := reader.Scan(ant, tag, trj)
	if err != nil {
		t.Fatal(err)
	}
	return reader, ant, tag, reads
}

// readsBefore returns how many reads precede stream time at.
func readsBefore(reads []sim.Sample, at time.Duration) int {
	for i, s := range reads {
		if s.Time >= at {
			return i
		}
	}
	return len(reads)
}

// runFaultRow feeds the reads through a pipeline built from liond's flags
// in batches of 400 ms of stream time, as POSTs paced by a reader deliver
// them, and returns every alert transition in order.
func runFaultRow(t *testing.T, flags []string, reads []sim.Sample) []health.Alert {
	t.Helper()
	cfg, err := parseFlags(flags)
	if err != nil {
		t.Fatal(err)
	}
	eng, mon, _, err := buildPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	defer eng.Close(ctx)
	var seen []health.Alert
	mon.SetOnTransition(func(a health.Alert) { seen = append(seen, a) })
	const batch = 400 * time.Millisecond
	next := batch
	for i, s := range reads {
		if err := eng.Ingest("T1", stream.FromSim(s)); err != nil {
			t.Fatal(err)
		}
		if i == len(reads)-1 || reads[i+1].Time >= next {
			if err := eng.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			next += batch
		}
	}
	return seen
}
