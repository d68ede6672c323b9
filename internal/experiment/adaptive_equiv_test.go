package experiment

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/rfid-lion/lion/internal/calib"
	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/sim"
	"github.com/rfid-lion/lion/internal/traject"
)

// adaptiveScenario builds one seeded three-line and two-line scan pair on
// the simulated testbed, the same way the calibration pipeline does.
func adaptiveScenario(t *testing.T, seed int64) (core.ThreeLineInput, core.TwoLineInput) {
	t.Helper()
	tb, err := newTestbed(seed)
	if err != nil {
		t.Fatal(err)
	}
	ant, err := tb.defaultAntenna("A", geom.V3(0, 0.8, 0.1), geom.V3(0, -1, 0))
	if err != nil {
		t.Fatal(err)
	}
	tag := &sim.Tag{ID: "T", PhaseOffset: tb.rng.Angle()}

	scan3, err := traject.NewThreeLineScan(traject.ThreeLineConfig{
		XMin: -0.6, XMax: 0.6, YSpacing: 0.2, ZSpacing: 0.2, Speed: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs3, samples3, err := tb.scanToObs(ant, tag, scan3)
	if err != nil {
		t.Fatal(err)
	}
	l1, l2, l3 := calib.Lines(obs3, sim.Segments(samples3))
	in3 := core.ThreeLineInput{L1: l1, L2: l2, L3: l3, Lambda: tb.lambda}

	scan2, err := traject.NewTwoLineScan(-0.5, 0.5, 0.2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	obs2, samples2, err := tb.scanToObs(ant, tag, scan2)
	if err != nil {
		t.Fatal(err)
	}
	l1, l2, _ = calib.Lines(obs2, sim.Segments(samples2))
	in2 := core.TwoLineInput{L1: l1, L2: l2, Lambda: tb.lambda}
	return in3, in2
}

// atProcs runs f with GOMAXPROCS set to n (n < 1 keeps the current value),
// the only input that sizes the batch pool behind adaptive sweeps and trial
// fan-out, and restores the previous setting.
func atProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestAdaptiveParallelEquivalentToSerial proves the parallel adaptive sweep
// returns a bit-identical AdaptiveResult — chosen candidates (range,
// interval), fused position, and the full sweep — to the serial path, on
// seeded testbed scenarios and across several GOMAXPROCS settings.
func TestAdaptiveParallelEquivalentToSerial(t *testing.T) {
	ranges := []float64{0.6, 0.8, 1.0}
	intervals := []float64{0.15, 0.2, 0.25}
	base := core.StructuredOptions{Solve: core.DefaultSolveOptions()}

	for _, seed := range []int64{1, 7, 42} {
		in3, in2 := adaptiveScenario(t, seed)

		var serial3, serial2 *core.AdaptiveResult
		var err3, err2 error
		atProcs(1, func() {
			serial3, err3 = core.AdaptiveLocateThreeLine(in3, ranges, intervals, base)
			serial2, err2 = core.AdaptiveLocateTwoLine(in2, true, ranges, intervals, base)
		})
		if err3 != nil {
			t.Fatalf("seed %d: serial three-line: %v", seed, err3)
		}
		if err2 != nil {
			t.Fatalf("seed %d: serial two-line: %v", seed, err2)
		}

		for _, procs := range []int{0, 2, 4, 8} { // 0 keeps the default
			var par3, par2 *core.AdaptiveResult
			atProcs(procs, func() {
				par3, err3 = core.AdaptiveLocateThreeLine(in3, ranges, intervals, base)
				par2, err2 = core.AdaptiveLocateTwoLine(in2, true, ranges, intervals, base)
			})
			if err3 != nil {
				t.Fatalf("seed %d GOMAXPROCS %d: three-line: %v", seed, procs, err3)
			}
			if !reflect.DeepEqual(par3, serial3) {
				t.Errorf("seed %d GOMAXPROCS %d: three-line AdaptiveResult differs from serial", seed, procs)
			}
			if err2 != nil {
				t.Fatalf("seed %d GOMAXPROCS %d: two-line: %v", seed, procs, err2)
			}
			if !reflect.DeepEqual(par2, serial2) {
				t.Errorf("seed %d GOMAXPROCS %d: two-line AdaptiveResult differs from serial", seed, procs)
			}
		}

		// The bit-identity must cover the selected parameters, not just the
		// fused position: spot-check the chosen (range, interval) pairs.
		par3, err := core.AdaptiveLocateThreeLine(in3, ranges, intervals, base)
		if err != nil {
			t.Fatal(err)
		}
		if len(par3.Selected) != len(serial3.Selected) {
			t.Fatalf("seed %d: %d selected vs %d serial", seed, len(par3.Selected), len(serial3.Selected))
		}
		for i := range par3.Selected {
			if par3.Selected[i].ScanRange != serial3.Selected[i].ScanRange ||
				par3.Selected[i].Interval != serial3.Selected[i].Interval {
				t.Errorf("seed %d: selected candidate %d params differ", seed, i)
			}
		}
	}
}

// TestFig13WorkersEquivalence runs the full Fig. 13 harness at GOMAXPROCS 1
// and 4: every error cell must be bit-identical (solver times are
// wall-clock and naturally vary).
func TestFig13WorkersEquivalence(t *testing.T) {
	var serial, parallel []Fig13Row
	var err error
	atProcs(1, func() { serial, _, err = Fig13Overall(Config{Seed: 5, Fast: true}) })
	if err != nil {
		t.Fatal(err)
	}
	atProcs(4, func() { parallel, _, err = Fig13Overall(Config{Seed: 5, Fast: true}) })
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("%d serial rows vs %d parallel", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Case != parallel[i].Case || serial[i].Method != parallel[i].Method {
			t.Fatalf("row %d identity differs", i)
		}
		if serial[i].MeanErr != parallel[i].MeanErr {
			t.Errorf("row %d (%s/%s): serial err %v != parallel err %v",
				i, serial[i].Case, serial[i].Method, serial[i].MeanErr, parallel[i].MeanErr)
		}
		if serial[i].MeanTime <= 0 || parallel[i].MeanTime <= 0 {
			t.Errorf("row %d: non-positive solver time", i)
		}
	}
}
