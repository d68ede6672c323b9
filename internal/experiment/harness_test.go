package experiment

import (
	"strings"
	"testing"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:   "Demo",
		Columns: []string{"name", "value"},
		Notes:   []string{"a note"},
	}
	tbl.AddRow("alpha", "1.00")
	tbl.AddRow("b", "22.50")
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== Demo ==", "name", "alpha", "22.50", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	// Columns align: every data line starts with the padded first column.
	lines := strings.Split(out, "\n")
	var nameCol, alphaCol int
	for _, l := range lines {
		if strings.HasPrefix(l, "name") {
			nameCol = strings.Index(l, "value")
		}
		if strings.HasPrefix(l, "alpha") {
			alphaCol = strings.Index(l, "1.00")
		}
	}
	if nameCol == 0 || nameCol != alphaCol {
		t.Errorf("columns misaligned: header %d vs row %d", nameCol, alphaCol)
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if got := c.seed(); got != 1 {
		t.Errorf("default seed = %d", got)
	}
	if got := c.trials(100, 5); got != 100 {
		t.Errorf("default trials = %d", got)
	}
	c.Fast = true
	if got := c.trials(100, 5); got != 5 {
		t.Errorf("fast trials = %d", got)
	}
	c.Trials = 42
	if got := c.trials(100, 5); got != 42 {
		t.Errorf("override trials = %d", got)
	}
	c.Seed = 9
	if got := c.seed(); got != 9 {
		t.Errorf("seed override = %d", got)
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := cm(0.1234); got != "12.34" {
		t.Errorf("cm = %q", got)
	}
	if got := f3(1.23456); got != "1.235" {
		t.Errorf("f3 = %q", got)
	}
	if got := secs(0.12345); got != "0.1234" && got != "0.1235" {
		t.Errorf("secs = %q", got)
	}
}

func TestWindowHelpers(t *testing.T) {
	obs := []core.PosPhase{
		{Pos: geom.V3(-0.5, 0, 0)}, {Pos: geom.V3(-0.1, 0, 0)},
		{Pos: geom.V3(0.2, 0, 0)}, {Pos: geom.V3(0.5, 0, 0)},
	}
	lo, hi := spanX(obs)
	if lo != -0.5 || hi != 0.5 {
		t.Errorf("spanX = %v, %v", lo, hi)
	}
	in := windowX(obs, 0, 0.5)
	if len(in) != 2 {
		t.Errorf("windowX kept %d, want 2", len(in))
	}
	if got := restrictRange(obs, 0); len(got) != len(obs) {
		t.Error("zero range should keep everything")
	}
	if got := restrictRange(obs, 0.6); len(got) != 2 {
		t.Errorf("restrictRange kept %d", len(got))
	}
}
