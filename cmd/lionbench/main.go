// Command lionbench regenerates every table and figure of the paper's
// evaluation on the simulated testbed and prints the results. Use -fast for
// a quick smoke run, -only to select individual experiments, and -o to write
// the report to a file (the source of EXPERIMENTS.md). Per-trial solves and
// adaptive sweeps run on a GOMAXPROCS-sized pool; results are identical at
// any GOMAXPROCS, only wall-clock changes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/rfid-lion/lion/internal/experiment"
	"github.com/rfid-lion/lion/internal/obs"
)

// runner names one experiment and its driver.
type runner struct {
	name string
	run  func(experiment.Config) (*experiment.Table, error)
}

func runners() []runner {
	return []runner{
		{"fig2", func(c experiment.Config) (*experiment.Table, error) {
			_, t, err := experiment.Fig2PhaseCenter(c)
			return t, err
		}},
		{"fig3", func(c experiment.Config) (*experiment.Table, error) {
			_, t, err := experiment.Fig3PhaseOffsets(c)
			return t, err
		}},
		{"fig4", func(c experiment.Config) (*experiment.Table, error) {
			_, t, err := experiment.Fig4Hologram(c)
			return t, err
		}},
		{"fig6", func(c experiment.Config) (*experiment.Table, error) {
			_, t, err := experiment.Fig6Directions(c)
			return t, err
		}},
		{"fig9", func(c experiment.Config) (*experiment.Table, error) {
			_, t, err := experiment.Fig9LowerDim(c)
			return t, err
		}},
		{"fig13", func(c experiment.Config) (*experiment.Table, error) {
			_, t, err := experiment.Fig13Overall(c)
			return t, err
		}},
		{"fig14a", func(c experiment.Config) (*experiment.Table, error) {
			_, t, err := experiment.Fig14a3D(c)
			return t, err
		}},
		{"fig14b", func(c experiment.Config) (*experiment.Table, error) {
			_, t, err := experiment.Fig14b2DDepth(c)
			return t, err
		}},
		{"fig15", func(c experiment.Config) (*experiment.Table, error) {
			_, t, err := experiment.Fig15Weights(c)
			return t, err
		}},
		{"fig16-17", func(c experiment.Config) (*experiment.Table, error) {
			_, t, err := experiment.Fig16_17Range(c)
			return t, err
		}},
		{"fig18", func(c experiment.Config) (*experiment.Table, error) {
			_, t, err := experiment.Fig18Interval(c)
			return t, err
		}},
		{"fig19-20", func(c experiment.Config) (*experiment.Table, error) {
			_, _, t, err := experiment.Fig19_20MultiAntenna(c)
			return t, err
		}},
		{"fig21", func(c experiment.Config) (*experiment.Table, error) {
			_, t, err := experiment.Fig21Turntable(c)
			return t, err
		}},
		{"ablation", func(c experiment.Config) (*experiment.Table, error) {
			_, t, err := experiment.AblationSolvers(c)
			return t, err
		}},
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lionbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lionbench", flag.ContinueOnError)
	var (
		fast    = fs.Bool("fast", false, "reduced grids and trial counts")
		seed    = fs.Int64("seed", 1, "random seed")
		trials  = fs.Int("trials", 0, "override repetition count (0 = default)")
		only    = fs.String("only", "", "comma-separated experiment names (e.g. fig13,fig21)")
		out     = fs.String("o", "", "also write the report to this file")
		profile = fs.String("profile", "", "write CPU and heap profiles to <prefix>.cpu.pprof / <prefix>.heap.pprof")
		jsonOut = fs.String("json", "", "run the micro-benchmark suite and write a machine-readable snapshot to this file ('-' for stdout), skipping the experiment tables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jsonOut != "" {
		return writeBenchJSON(*jsonOut, stdout)
	}
	cfg := experiment.Config{Seed: *seed, Trials: *trials, Fast: *fast}

	if *profile != "" {
		stop, err := obs.StartProfiles(*profile)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "lionbench: profile:", err)
			} else {
				fmt.Fprintf(os.Stderr, "lionbench: profiles written to %s.cpu.pprof and %s.heap.pprof\n", *profile, *profile)
			}
		}()
	}

	selected := map[string]bool{}
	for _, name := range strings.Split(*only, ",") {
		if name = strings.TrimSpace(name); name != "" {
			selected[name] = true
		}
	}

	w := stdout
	var file *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		file = f
		w = io.MultiWriter(stdout, f)
	}

	start := time.Now()
	for _, r := range runners() {
		if len(selected) > 0 && !selected[r.name] {
			continue
		}
		t0 := time.Now()
		tbl, err := r.run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "  [%s completed in %s]\n\n", r.name, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Fprintf(w, "total: %s\n", time.Since(start).Round(time.Millisecond))
	if file != nil {
		fmt.Fprintf(stdout, "report written to %s\n", file.Name())
	}
	return nil
}
