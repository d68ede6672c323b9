package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fast_tables.golden")

// TestFastTablesGolden pins the Fast-mode tables of the experiments that the
// calibration path and the scan-label split feed (Figs. 13, 14a, 19–20 and
// 21) byte for byte. Wall-time columns are dropped before rendering; every
// other cell is fixed by the seed. Regenerate with
//
//	go test ./internal/experiment -run TestFastTablesGolden -update
func TestFastTablesGolden(t *testing.T) {
	cfg := Config{Seed: 1, Fast: true}
	runs := []func(Config) (*Table, error){
		func(c Config) (*Table, error) { _, tbl, err := Fig13Overall(c); return tbl, err },
		func(c Config) (*Table, error) { _, tbl, err := Fig14a3D(c); return tbl, err },
		func(c Config) (*Table, error) { _, _, tbl, err := Fig19_20MultiAntenna(c); return tbl, err },
		func(c Config) (*Table, error) { _, tbl, err := Fig21Turntable(c); return tbl, err },
	}
	var got bytes.Buffer
	for _, run := range runs {
		tbl, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := dropTimeColumns(tbl).Render(&got); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "fast_tables.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Fast-mode tables differ from %s:\n--- got ---\n%s--- want ---\n%s", path, got.Bytes(), want)
	}
}

// dropTimeColumns returns a copy of tbl without its wall-time columns,
// whose cells vary from run to run.
func dropTimeColumns(tbl *Table) *Table {
	out := &Table{Title: tbl.Title, Notes: tbl.Notes}
	var keep []int
	for i, c := range tbl.Columns {
		if !strings.Contains(c, "time (s)") {
			keep = append(keep, i)
			out.Columns = append(out.Columns, c)
		}
	}
	for _, row := range tbl.Rows {
		cells := make([]string, 0, len(keep))
		for _, i := range keep {
			cells = append(cells, row[i])
		}
		out.AddRow(cells...)
	}
	return out
}
