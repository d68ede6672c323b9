package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	lion "github.com/rfid-lion/lion"
	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/traject"
)

const hopList = "902.75e6,915.25e6,927.25e6"

// writeHoppedDataset simulates a hopped circular scan and writes it as CSV.
func writeHoppedDataset(t *testing.T) (string, geom.Vec3) {
	t.Helper()
	env, err := lion.NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	reader, err := lion.NewReader(env, lion.ReaderConfig{
		RateHz: 100,
		Seed:   8,
		Hopping: &lion.HopPlan{
			FrequenciesHz: []float64{902.75e6, 915.25e6, 927.25e6},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ant := &lion.Antenna{PhysicalCenter: geom.V3(0.1, 0.8, 0), PhaseOffset: 1.3}
	tag := &lion.Tag{PhaseOffset: 0.5}
	trj, err := traject.NewCircularXY(geom.V3(0, 0, 0), 0.3, 0.1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := reader.Scan(ant, tag, trj)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "hop.csv")
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

func TestRunMultiChannelMode(t *testing.T) {
	path, _ := writeHoppedDataset(t)
	if err := run([]string{
		"-in", path, "-mode", "multichannel", "-channels", hopList,
	}, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunMultiChannelStraightPassFails: the joint solve of a hopped
// straight pass cannot determine the perpendicular coordinate. lioncal used
// to print it as NaN and exit 0; it must fail and name the coordinate.
func TestRunMultiChannelStraightPassFails(t *testing.T) {
	path := writeLineDataset(t, []float64{902.75e6, 910.75e6, 918.75e6, 927.25e6})
	err := run([]string{
		"-in", path, "-mode", "multichannel", "-channels", "902.75e6,910.75e6,918.75e6,927.25e6",
	}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "y unknown") {
		t.Fatalf("hopped straight pass: err = %v, want an error naming y", err)
	}
}

func TestMultiChannelModeRequiresChannels(t *testing.T) {
	path, _ := writeHoppedDataset(t)
	if err := run([]string{"-in", path, "-mode", "multichannel"}, io.Discard); err == nil {
		t.Error("missing -channels accepted")
	}
}

func TestLocateMultiChannelAccuracy(t *testing.T) {
	path, truth := writeHoppedDataset(t)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := dataset.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	pos, err := locateMultiChannel(samples, hopList, 9)
	if err != nil {
		t.Fatal(err)
	}
	if d := pos.XY().Dist(truth.XY()); d > 0.04 {
		t.Errorf("multichannel estimate off by %v m", d)
	}
}

func TestLocateMultiChannelValidation(t *testing.T) {
	path, _ := writeHoppedDataset(t)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := dataset.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := locateMultiChannel(samples, "abc", 9); err == nil {
		t.Error("malformed channel list accepted")
	}
	// A channel index beyond the list must be rejected.
	if _, err := locateMultiChannel(samples, "902.75e6", 9); err == nil {
		t.Error("short channel list accepted")
	}
}

// bits is v's exact bit pattern, for bit-identity comparisons.
func bits(v geom.Vec3) [3]uint64 {
	return [3]uint64{math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z)}
}

// TestLocateMultiChannelDeterministic solves one hopped scan 20 times: the
// channels must enter the joint solve in the same order every time, so the
// center is bit-identical across runs.
func TestLocateMultiChannelDeterministic(t *testing.T) {
	path, _ := writeHoppedDataset(t)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := dataset.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	first, err := locateMultiChannel(samples, hopList, 9)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 20; run++ {
		pos, err := locateMultiChannel(samples, hopList, 9)
		if err != nil {
			t.Fatal(err)
		}
		if bits(pos) != bits(first) {
			t.Fatalf("run %d: center bits %x, run 0: %x", run, bits(pos), bits(first))
		}
	}
}
