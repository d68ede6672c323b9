// Package experiment regenerates every table and figure of the paper's
// evaluation (Sec. II empirical studies and Sec. V performance evaluation)
// on the simulated testbed. Each FigNN function reproduces one figure and
// returns both typed results (for tests and benchmarks) and a rendered
// table (for the lionbench CLI and EXPERIMENTS.md).
//
// Absolute centimetre values depend on the authors' room and hardware; what
// these experiments preserve is the shape of each result — who wins, by
// roughly what factor, and where the crossovers fall. See DESIGN.md §3.
package experiment

import (
	"fmt"
	"io"
	"strings"
)

// Config controls the scale of every experiment run.
type Config struct {
	// Seed makes runs reproducible. Zero means 1.
	Seed int64
	// Trials scales the repetition count. Zero uses each experiment's
	// paper-faithful default.
	Trials int
	// Fast shrinks grids and repetition counts so the full suite runs in
	// seconds — used by unit tests; benchmarks and the CLI use the full
	// configuration.
	Fast bool
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

func (c Config) trials(def, fast int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Fast {
		return fast
	}
	return def
}

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	b.WriteString("== " + t.Title + " ==\n")
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	rule := make([]string, len(t.Columns))
	for i, w := range widths {
		rule[i] = strings.Repeat("-", w)
	}
	writeRow(rule)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("  note: " + n + "\n")
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// cm formats metres as centimetres with two decimals.
func cm(metres float64) string { return fmt.Sprintf("%.2f", metres*100) }

// f3 formats a float with three decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// secs formats a duration in seconds with four decimals.
func secs(s float64) string { return fmt.Sprintf("%.4f", s) }
