package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	lion "github.com/rfid-lion/lion"
	"github.com/rfid-lion/lion/internal/calib"
	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/sim"
	"github.com/rfid-lion/lion/internal/traject"
)

// writeScanDataset simulates a three-line calibration scan and writes it as
// CSV, returning the path and the true phase center.
func writeScanDataset(t *testing.T) (string, geom.Vec3) {
	t.Helper()
	env, err := lion.NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	reader, err := lion.NewReader(env, lion.ReaderConfig{RateHz: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ant := &lion.Antenna{
		ID:                "A1",
		PhysicalCenter:    geom.V3(0, 0.8, 0),
		PhaseCenterOffset: geom.V3(0.02, -0.015, 0.025),
		PhaseOffset:       2.0,
	}
	tag := &lion.Tag{ID: "T1", PhaseOffset: 0.3}
	scan, err := traject.NewThreeLineScan(traject.ThreeLineConfig{
		XMin: -0.6, XMax: 0.6, YSpacing: 0.2, ZSpacing: 0.2, Speed: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Shift the scan 0.8 m in front of the antenna? The antenna is at
	// y=0.8 looking at the track at y=0 — the scan stays at y=0.
	samples, err := reader.Scan(ant, tag, scan)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scan.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.Write(f, samples); err != nil {
		t.Fatal(err)
	}
	return path, ant.PhaseCenter()
}

func TestRunEndToEnd(t *testing.T) {
	path, _ := writeScanDataset(t)
	if err := run([]string{"-in", path, "-mode", "threeline", "-physical", "0,0.8,0"}, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunRejectsNonFinitePhysical: strconv parses "nan" and "inf", and a
// non-finite -physical center can only yield a NaN displacement, so the
// flag must be refused.
func TestRunRejectsNonFinitePhysical(t *testing.T) {
	path, _ := writeScanDataset(t)
	for _, phys := range []string{"nan,0,inf", "0,0.8,-Inf", "NaN,0.8,0"} {
		if err := run([]string{"-in", path, "-mode", "threeline", "-physical", phys}, io.Discard); err == nil {
			t.Errorf("-physical %s accepted", phys)
		}
	}
}

// TestRunPhysicalParsedBeforeSolve: a bad -physical is refused before the
// dataset is read or solved, so nothing of a calibration report is printed.
func TestRunPhysicalParsedBeforeSolve(t *testing.T) {
	path, _ := writeScanDataset(t)
	var out strings.Builder
	if err := run([]string{"-in", path, "-mode", "threeline", "-physical", "nan,0,inf"}, &out); err == nil {
		t.Fatal("-physical nan,0,inf accepted")
	}
	if out.Len() != 0 {
		t.Errorf("printed before refusing -physical:\n%s", out.String())
	}
}

func TestRunMissingInput(t *testing.T) {
	if err := run(nil, io.Discard); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run([]string{"-in", "/nonexistent.csv"}, io.Discard); err == nil {
		t.Error("nonexistent file accepted")
	}
}

func TestRunBadMode(t *testing.T) {
	path, _ := writeScanDataset(t)
	if err := run([]string{"-in", path, "-mode", "bogus"}, io.Discard); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestRunBadFrequency(t *testing.T) {
	path, _ := writeScanDataset(t)
	if err := run([]string{"-in", path, "-freq", "-1"}, io.Discard); err == nil {
		t.Error("negative frequency accepted")
	}
}

func TestLocateDispatch(t *testing.T) {
	path, truth := writeScanDataset(t)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := dataset.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	lambda := lion.DefaultBand().Wavelength()
	cfg := scanConfig(lambda, 9, 0.2, 0.8, true, true)
	res, err := calib.Estimate("threeline", sim.Positions(samples), sim.Phases(samples), sim.Segments(samples), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Center.Dist(truth); d > 0.03 {
		t.Errorf("threeline estimate off by %v m", d)
	}
	if _, err := calib.Estimate("nope", sim.Positions(samples), sim.Phases(samples), sim.Segments(samples), cfg); err == nil {
		t.Error("unknown mode accepted")
	}
}

// writeLineDataset simulates one straight pass 0.8 m in front of an
// antenna, optionally channel-hopped, and writes it as CSV.
func writeLineDataset(t *testing.T, hop []float64) string {
	t.Helper()
	env, err := lion.NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	cfg := lion.ReaderConfig{RateHz: 100, Seed: 1}
	if hop != nil {
		cfg.Hopping = &lion.HopPlan{FrequenciesHz: hop}
	}
	reader, err := lion.NewReader(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ant := &lion.Antenna{
		PhysicalCenter:    geom.V3(0, 0.8, 0),
		PhaseCenterOffset: geom.V3(0.02, -0.015, 0),
		PhaseOffset:       2.74,
	}
	trj, err := traject.NewLinear(geom.V3(-0.6, 0, 0), geom.V3(0.6, 0, 0), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := reader.Scan(ant, &lion.Tag{PhaseOffset: 0.4}, trj)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "line.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.Write(f, samples); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunLineModeHonoursAdaptive: -mode line used to solve one fixed
// interval whatever -adaptive said. The adaptive run must print the
// interval sweep's center, the non-adaptive run the -interval solve's.
func TestRunLineModeHonoursAdaptive(t *testing.T) {
	path := writeLineDataset(t, nil)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := dataset.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	lambda := lion.DefaultBand().Wavelength()
	for _, adaptive := range []bool{true, false} {
		var out strings.Builder
		args := []string{"-in", path, "-mode", "line", "-adaptive=" + strconv.FormatBool(adaptive)}
		if err := run(args, &out); err != nil {
			t.Fatalf("adaptive=%v: %v", adaptive, err)
		}
		cfg := calib.Config{Lambda: lambda, Smooth: 9, PositiveSide: true, Adaptive: adaptive}
		if !adaptive {
			cfg.Intervals = []float64{0.2}
		}
		want, err := calib.EstimateLine(sim.Positions(samples), sim.Phases(samples), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if line := fmt.Sprintf("estimated center: %v\n", want.Center); !strings.Contains(out.String(), line) {
			t.Errorf("adaptive=%v: output\n%s\nlacks %q", adaptive, out.String(), line)
		}
	}
}
