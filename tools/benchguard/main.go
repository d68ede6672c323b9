// Command benchguard compares a freshly measured lionbench -json snapshot
// against the committed baseline (BENCH_<pr>.json) and fails when the hot
// paths regress. `make bench-guard` wires it into `make check`.
//
// Rules:
//
//   - Every benchmark named in the baseline must be present in the current
//     snapshot — a silently dropped benchmark is a regression of coverage.
//   - allocs_per_op is guarded for every baseline benchmark: allocation
//     counts are deterministic, so any increase beyond the shift budget
//     fails. A zero-alloc baseline therefore fails on the first allocation.
//   - ns_per_op is guarded only for the names listed with -ns (wall clock is
//     noisy; the guarded list holds the benchmarks whose latency is a
//     product requirement).
//   - Macro SLO fields (the "macro" section lionload merges into a
//     snapshot) are guarded against their declared targets, not against the
//     previous snapshot: a committed BENCH file whose measured macro value
//     exceeds its own SLO target is a failing build. When the current
//     snapshot carries macro entries too (a fresh lionload run), the same
//     target rule applies to them, and any macro name present in the
//     baseline but missing from a macro-carrying current snapshot is a
//     coverage regression.
//
// Exit status 1 on any violation, with one line per finding.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/rfid-lion/lion/internal/benchfmt"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	var (
		baselinePath = fs.String("baseline", "", "committed snapshot to guard against (required)")
		currentPath  = fs.String("current", "", "freshly measured snapshot (required)")
		maxShift     = fs.Float64("max-shift", 0.10, "allowed fractional regression per metric")
		// recal_solve is deliberately NOT ns-guarded: the recalibration
		// re-solve runs off the hot path (once per drift alert, on the
		// controller's goroutine), so only its deterministic allocs/op is a
		// product requirement — wall clock there is all measurement noise.
		nsNames = fs.String("ns", "locate_2d_line,stream_resolve_incremental,wire_decode",
			"comma-separated benchmark names whose ns_per_op is guarded")
		macro = fs.Bool("macro", true,
			"guard macro SLO fields against their declared targets")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *baselinePath == "" {
		return fmt.Errorf("-baseline is required")
	}
	if *currentPath == "" {
		return fmt.Errorf("-current is required")
	}
	baseline, err := benchfmt.Read(*baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	current, err := benchfmt.Read(*currentPath)
	if err != nil {
		return fmt.Errorf("current: %w", err)
	}
	guardNS := map[string]bool{}
	for _, n := range strings.Split(*nsNames, ",") {
		if n = strings.TrimSpace(n); n != "" {
			guardNS[n] = true
		}
	}
	findings := compare(baseline, current, *maxShift, guardNS)
	if *macro {
		findings = append(findings, compareMacro(baseline, current)...)
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		return fmt.Errorf("%d regression(s) against %s", len(findings), *baselinePath)
	}
	fmt.Fprintf(stdout, "benchguard: %d benchmarks within %.0f%% of %s, %d macro SLO fields on target\n",
		len(baseline.Benchmarks), *maxShift*100, *baselinePath, len(baseline.Macro))
	return nil
}

// compare returns one human-readable finding per violated micro rule.
func compare(baseline, current *benchfmt.Snapshot, maxShift float64, guardNS map[string]bool) []string {
	cur := map[string]benchfmt.Bench{}
	for _, b := range current.Benchmarks {
		cur[b.Name] = b
	}
	var findings []string
	for _, base := range baseline.Benchmarks {
		got, ok := cur[base.Name]
		if !ok {
			findings = append(findings,
				fmt.Sprintf("%s: missing from current snapshot", base.Name))
			continue
		}
		if allowed := float64(base.AllocsPerOp) * (1 + maxShift); float64(got.AllocsPerOp) > allowed {
			findings = append(findings,
				fmt.Sprintf("%s: allocs/op %d, baseline %d (budget %.1f)",
					base.Name, got.AllocsPerOp, base.AllocsPerOp, allowed))
		}
		if guardNS[base.Name] {
			if allowed := base.NsPerOp * (1 + maxShift); got.NsPerOp > allowed {
				findings = append(findings,
					fmt.Sprintf("%s: %.0f ns/op, baseline %.0f (budget %.0f)",
						base.Name, got.NsPerOp, base.NsPerOp, allowed))
			}
		}
	}
	return findings
}

// compareMacro guards the macro SLO section. Macro measurements are
// end-to-end wall-clock numbers from a real load run, so the guard is
// absolute — Value <= declared Target — applied to the committed baseline
// (the snapshot of record must meet its own SLOs) and, when present, to a
// freshly measured current macro section. Coverage is only compared when
// the current snapshot carries macro entries at all: a plain lionbench run
// legitimately has none.
func compareMacro(baseline, current *benchfmt.Snapshot) []string {
	var findings []string
	check := func(origin string, entries []benchfmt.Macro) {
		for _, m := range entries {
			if !m.Pass() {
				findings = append(findings,
					fmt.Sprintf("macro %s (%s): %g %s over target %g %s",
						m.Name, origin, m.Value, m.Unit, m.Target, m.Unit))
			}
		}
	}
	check("baseline", baseline.Macro)
	if len(current.Macro) == 0 {
		return findings
	}
	check("current", current.Macro)
	cur := map[string]bool{}
	for _, m := range current.Macro {
		cur[m.Name] = true
	}
	for _, m := range baseline.Macro {
		if !cur[m.Name] {
			findings = append(findings,
				fmt.Sprintf("macro %s: missing from current snapshot", m.Name))
		}
	}
	return findings
}
