// Command metriclint enforces the repo's metric contracts. Every metric
// registered through the obs registry (Counter, CounterVec, Gauge, GaugeFunc,
// GaugeVec, Histogram calls with a literal name) must match ^lion_[a-z_]+$
// and appear in DESIGN.md's observability section, and every metric that
// section's inventory table lists must be registered somewhere, so a
// deleted metric cannot leave a stale row behind; vec label names must be
// valid Prometheus label identifiers; counters must end in _total and
// histograms in _seconds or _bytes (the Prometheus unit conventions).
// Label cardinality is also policed:
// a `.With(x)` call where x is not a string literal mints a time series per
// distinct runtime value, so it must carry a
//
//	// metriclint:bounded <reason>
//
// marker (same line or the line above) explaining why the value set is
// finite. Run from the repo root; `make check` wires it in.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var (
	nameRE  = regexp.MustCompile(`^lion_[a-z_]+$`)
	labelRE = regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)
	// rowRE matches a metric inventory row: a table line whose first cell
	// is a backticked lion_* name, optionally followed by {labels}.
	rowRE = regexp.MustCompile("(?m)^\\| `(lion_[a-z_]+)")
)

// registerFuncs are the obs.Registry methods that take a metric name as
// their first argument: the index of the label-name argument (-1 for
// unlabelled metrics) and the metric kind, which drives the unit-suffix rule.
var registerFuncs = map[string]struct {
	labelArg int
	kind     string
}{
	"Counter":    {-1, "counter"},
	"CounterVec": {2, "counter"},
	"Gauge":      {-1, "gauge"},
	"GaugeFunc":  {-1, "gauge"},
	"GaugeVec":   {2, "gauge"},
	"Histogram":  {-1, "histogram"},
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	rep, err := lint(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metriclint:", err)
		os.Exit(1)
	}
	if len(rep.metrics) == 0 {
		fmt.Fprintln(os.Stderr, "metriclint: no registered metrics found (wrong directory?)")
		os.Exit(1)
	}
	if len(rep.issues) > 0 {
		for _, issue := range rep.issues {
			fmt.Fprintln(os.Stderr, "metriclint:", issue)
		}
		os.Exit(1)
	}
	fmt.Printf("metriclint: %d metrics ok\n", len(rep.metrics))
}

// report is the lint result: the registered metrics (name -> "file:line" of
// first registration), their kinds, and the sorted list of violations.
type report struct {
	metrics map[string]string
	kinds   map[string]string
	issues  []string
}

// lint walks the tree, collects registrations, and cross-checks DESIGN.md.
func lint(root string) (*report, error) {
	rep, err := collect(root)
	if err != nil {
		return nil, err
	}
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		return nil, err
	}
	var names []string
	for name := range rep.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !nameRE.MatchString(name) {
			rep.issues = append(rep.issues, fmt.Sprintf("%s: metric %q does not match %s",
				rep.metrics[name], name, nameRE))
		}
		if !strings.Contains(string(design), name) {
			rep.issues = append(rep.issues, fmt.Sprintf("%s: metric %q is not documented in DESIGN.md",
				rep.metrics[name], name))
		}
		// Unit suffixes, per the Prometheus naming conventions: counters
		// count events (_total); histograms here observe durations or sizes
		// (_seconds/_bytes). Gauges are exempt — they report instantaneous
		// levels in whatever unit the name states.
		switch rep.kinds[name] {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				rep.issues = append(rep.issues, fmt.Sprintf(
					"%s: counter %q must end in _total", rep.metrics[name], name))
			}
		case "histogram":
			if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") {
				rep.issues = append(rep.issues, fmt.Sprintf(
					"%s: histogram %q must end in _seconds or _bytes", rep.metrics[name], name))
			}
		}
	}
	for _, name := range inventory(string(design)) {
		if _, ok := rep.metrics[name]; !ok {
			rep.issues = append(rep.issues, fmt.Sprintf(
				"DESIGN.md: metric %q is in the inventory table but registered nowhere", name))
		}
	}
	sort.Strings(rep.issues)
	return rep, nil
}

// inventory returns the metric names DESIGN.md's section 9 tabulates: the
// rows between its "## 9." heading and the next top-level heading.
func inventory(design string) []string {
	start := strings.Index(design, "\n## 9.")
	if start < 0 {
		return nil
	}
	section := design[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	var names []string
	for _, m := range rowRE.FindAllStringSubmatch(section, -1) {
		names = append(names, m[1])
	}
	return names
}

// collect walks the tree and gathers registrations plus in-file violations
// (bad label names, unmarked dynamic .With values). Tests and vendored trees
// are skipped.
func collect(root string) (*report, error) {
	rep := &report{metrics: make(map[string]string), kinds: make(map[string]string)}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if base == "vendor" || base == "testdata" || strings.HasPrefix(base, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		lintFile(fset, path, file, rep)
		return nil
	})
	return rep, err
}

// lintFile inspects one parsed file for registrations and .With call sites.
func lintFile(fset *token.FileSet, path string, file *ast.File, rep *report) {
	// Lines blessed by a `metriclint:bounded <reason>` marker: the marker
	// covers its own line and the line below, so it works both inline and
	// as a lead-in comment.
	bounded := make(map[int]bool)
	for _, grp := range file.Comments {
		for _, c := range grp.List {
			text := strings.TrimLeft(strings.TrimPrefix(c.Text, "//"), " \t")
			rest, ok := strings.CutPrefix(text, "metriclint:bounded")
			if !ok {
				continue
			}
			line := fset.Position(c.End()).Line
			if strings.TrimSpace(rest) == "" {
				rep.issues = append(rep.issues, fmt.Sprintf(
					"%s:%d: metriclint:bounded marker needs a reason", path, line))
				continue
			}
			bounded[line] = true
			bounded[line+1] = true
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pos := fset.Position(call.Pos())
		if sel.Sel.Name == "With" && len(call.Args) == 1 {
			if _, lit := stringLit(call.Args[0]); !lit && !bounded[pos.Line] {
				rep.issues = append(rep.issues, fmt.Sprintf(
					"%s:%d: dynamic label value in .With() without a "+
						"`// metriclint:bounded <reason>` marker", path, pos.Line))
			}
			return true
		}
		reg, registers := registerFuncs[sel.Sel.Name]
		if !registers {
			return true
		}
		name, ok := stringLit(call.Args[0])
		// Only lion-prefixed literals are registry metrics; other receivers
		// share method names (e.g. a config field "Counter").
		if !ok || !strings.HasPrefix(name, "lion") {
			return true
		}
		if _, seen := rep.metrics[name]; !seen {
			rep.metrics[name] = fmt.Sprintf("%s:%d", path, pos.Line)
			rep.kinds[name] = reg.kind
		}
		if reg.labelArg >= 0 && reg.labelArg < len(call.Args) {
			if label, ok := stringLit(call.Args[reg.labelArg]); ok && !labelRE.MatchString(label) {
				rep.issues = append(rep.issues, fmt.Sprintf(
					"%s:%d: metric %q label %q does not match %s",
					path, pos.Line, name, label, labelRE))
			}
		}
		return true
	})
}

// stringLit unwraps a string-literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}
