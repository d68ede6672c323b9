// Command lionsim generates synthetic RFID scan datasets with the software
// testbed and writes them as CSV for lioncal (or any other consumer).
//
// Example — a three-line calibration scan of an antenna whose phase center
// is displaced 2.5 cm from its mounting position:
//
//	lionsim -scenario threeline -ay 0.8 -dx 0.025 -o scan.csv
//
// With -explain it also calibrates the scan and writes one NDJSON line per
// candidate of the adaptive sweep (Sec. IV-C-1), marking the ones whose
// average is the estimated center:
//
//	lionsim -scenario threeline -o scan.csv -explain sweep.ndjson
//
// With -pace the scan streams at a target sample rate on an ideal-clock
// schedule instead of being written at once, so a replay file can feed a
// live liond at field-realistic tags/sec:
//
//	lionsim -scenario linear -format ndjson -pace 500 |
//	    curl -sS -X POST --data-binary @- http://localhost:8080/v1/samples
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	lion "github.com/rfid-lion/lion"
	"github.com/rfid-lion/lion/internal/calib"
	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/load"
	"github.com/rfid-lion/lion/internal/obs"
	"github.com/rfid-lion/lion/internal/sim"
	"github.com/rfid-lion/lion/internal/traject"
	"github.com/rfid-lion/lion/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lionsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lionsim", flag.ContinueOnError)
	var (
		scenario = fs.String("scenario", "threeline",
			"trajectory: linear, threeline, twoline, circle")
		out    = fs.String("o", "", "output path (default stdout)")
		format = fs.String("format", "csv",
			"output format: csv, ndjson (liond ingest lines), or wire (binary ingest frames)")
		tagID = fs.String("tag", "T1", "tag id (stamped on ndjson output)")
		seed  = fs.Int64("seed", 1, "random seed")
		noise = fs.Float64("noise", sim.DefaultPhaseNoiseStd,
			"phase noise std, radians")
		rate  = fs.Float64("rate", 100, "read rate, Hz")
		speed = fs.Float64("speed", 0.1, "tag speed, m/s")

		ax = fs.Float64("ax", 0, "antenna physical center x, m")
		ay = fs.Float64("ay", 0.8, "antenna physical center y (depth), m")
		az = fs.Float64("az", 0, "antenna physical center z, m")
		dx = fs.Float64("dx", 0.02, "phase-center displacement x, m")
		dy = fs.Float64("dy", -0.015, "phase-center displacement y, m")
		dz = fs.Float64("dz", 0.025, "phase-center displacement z, m")

		offset    = fs.Float64("offset", 2.74, "antenna phase offset, radians")
		tagOffset = fs.Float64("tag-offset", 0.4, "tag phase offset, radians")

		span    = fs.Float64("span", 1.2, "scan extent along x, m")
		spacing = fs.Float64("spacing", 0.2, "line spacing y_o/z_o, m")
		radius  = fs.Float64("radius", 0.2, "circle radius, m")

		hop = fs.String("hop", "",
			"comma-separated hop frequencies in Hz (empty = fixed carrier)")
		dwell = fs.Duration("dwell", 200*time.Millisecond, "hop dwell time")

		pace = fs.Float64("pace", 0,
			"stream output at this many samples/sec on an ideal clock (ndjson or wire only; 0 = write at once)")
		paceBatch = fs.Int("pace-batch", 32, "samples per paced chunk")

		explain = fs.String("explain", "",
			"also localize the generated scan and write one NDJSON line per adaptive candidate to this file")
		profile = fs.String("profile", "",
			"write CPU and heap profiles to <prefix>.cpu.pprof / <prefix>.heap.pprof")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *profile != "" {
		stop, perr := obs.StartProfiles(*profile)
		if perr != nil {
			return perr
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "lionsim: profile:", err)
			}
		}()
	}

	env, err := lion.NewEnvironment()
	if err != nil {
		return err
	}
	env.PhaseNoiseStd = *noise
	readerCfg := lion.ReaderConfig{RateHz: *rate, Seed: *seed}
	if *hop != "" {
		plan := &lion.HopPlan{Dwell: *dwell}
		for _, part := range strings.Split(*hop, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return fmt.Errorf("hop frequency %q: %w", part, err)
			}
			plan.FrequenciesHz = append(plan.FrequenciesHz, f)
		}
		readerCfg.Hopping = plan
	}
	reader, err := lion.NewReader(env, readerCfg)
	if err != nil {
		return err
	}
	ant := &lion.Antenna{
		ID:                "A1",
		PhysicalCenter:    geom.V3(*ax, *ay, *az),
		PhaseCenterOffset: geom.V3(*dx, *dy, *dz),
		PhaseOffset:       *offset,
	}
	tag := &lion.Tag{ID: *tagID, PhaseOffset: *tagOffset}

	var trj traject.Trajectory
	half := *span / 2
	switch *scenario {
	case "linear":
		trj, err = traject.NewLinear(geom.V3(-half, 0, 0), geom.V3(half, 0, 0), *speed)
	case "threeline":
		trj, err = traject.NewThreeLineScan(traject.ThreeLineConfig{
			XMin: -half, XMax: half,
			YSpacing: *spacing, ZSpacing: *spacing, Speed: *speed,
		})
	case "twoline":
		trj, err = traject.NewTwoLineScan(-half, half, *spacing, *speed)
	case "circle":
		trj, err = traject.NewCircularXY(geom.V3(0, 0, 0), *radius, *speed, 0, 1)
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
	if err != nil {
		return err
	}

	samples, err := reader.Scan(ant, tag, trj)
	if err != nil {
		return err
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch {
	case *pace > 0:
		err = emitPaced(w, *format, tag.ID, samples, *pace, *paceBatch)
	default:
		switch *format {
		case "csv":
			err = dataset.Write(w, samples)
		case "ndjson":
			err = dataset.WriteNDJSON(w, tag.ID, samples)
		case "wire":
			tagged := make([]dataset.TaggedSample, len(samples))
			for i, sm := range samples {
				tagged[i] = dataset.Tagged(tag.ID, sm)
			}
			err = wire.Codec{}.Encode(w, tagged)
		default:
			err = fmt.Errorf("unknown format %q (want csv, ndjson or wire)", *format)
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"lionsim: %d reads, scenario %s, true phase center %v, offset %.3f rad\n",
		len(samples), *scenario, ant.PhaseCenter(), *offset+*tagOffset)
	if *explain != "" {
		if err := writeExplain(*explain, *scenario, samples, env.Wavelength()); err != nil {
			return fmt.Errorf("explain: %w", err)
		}
	}
	return nil
}

// emitPaced streams the scan in fixed-size chunks on an ideal-clock schedule
// (chunk i due at start + i·interval, see load.Pacer): replay keeps the
// target rate even when a write stalls, because the next chunk's due time
// never moves. CSV is a batch file format,
// so pacing supports only the streaming ingest formats.
func emitPaced(w io.Writer, format, tagID string, samples []sim.Sample, rate float64, batch int) error {
	if batch <= 0 {
		return fmt.Errorf("-pace-batch must be positive (got %d)", batch)
	}
	var emit func(chunk []sim.Sample) error
	switch format {
	case "ndjson":
		emit = func(chunk []sim.Sample) error {
			return dataset.WriteNDJSON(w, tagID, chunk)
		}
	case "wire":
		buf := make([]dataset.TaggedSample, 0, batch)
		emit = func(chunk []sim.Sample) error {
			buf = buf[:0]
			for _, sm := range chunk {
				buf = append(buf, dataset.Tagged(tagID, sm))
			}
			return wire.Codec{}.Encode(w, buf)
		}
	default:
		return fmt.Errorf("-pace requires -format ndjson or wire (got %q)", format)
	}
	pacer := load.PacerForRate(time.Now(), rate/float64(batch))
	for i, off := 0, 0; off < len(samples); i, off = i+1, off+batch {
		pacer.Wait(i)
		end := off + batch
		if end > len(samples) {
			end = len(samples)
		}
		if err := emit(samples[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// explainSmooth matches the experiments' preprocessing window.
const explainSmooth = 9

// explainModes maps each line scenario to the calibration mode that
// localizes it.
var explainModes = map[string]string{
	"linear":    calib.ModeLine,
	"threeline": calib.ModeThreeLine,
	"twoline":   calib.ModeTwoLine,
}

// explainLine is one -explain NDJSON line: a candidate's scanning range and
// pairing interval (0 where the solve has none), its fit or its error, and
// whether the selection rule averaged it into the center.
type explainLine struct {
	ScanRange float64 `json:"scan_range_m"`
	Interval  float64 `json:"interval_m"`
	*explainFit
	Selected bool   `json:"selected"`
	Error    string `json:"error,omitempty"`
}

// explainFit is a solved candidate's part of its line; a failed candidate
// has none.
type explainFit struct {
	MeanResidual  float64    `json:"mean_residual"`
	Iterations    int        `json:"iterations"`
	FinalResidual float64    `json:"final_residual"`
	Position      [3]float64 `json:"position"`
}

func explainCandidate(c core.Candidate, selected bool) explainLine {
	line := explainLine{ScanRange: c.ScanRange, Interval: c.Interval, Selected: selected}
	if c.Err != nil {
		line.Error = c.Err.Error()
		return line
	}
	sol := c.Solution
	line.explainFit = &explainFit{
		MeanResidual:  sol.MeanResidual,
		Iterations:    sol.Iterations,
		FinalResidual: sol.FinalResidual,
		Position:      [3]float64{sol.Position.X, sol.Position.Y, sol.Position.Z},
	}
	return line
}

// writeExplain localizes the generated scan with the scenario's natural
// solver and writes one line per candidate. The line scans run the adaptive
// calibration solve, whose sweep is calib.Result.Adaptive; the circle runs
// the stride-paired 2-D solve, one selected candidate.
func writeExplain(path, scenario string, samples []sim.Sample, lambda float64) error {
	positions, phases := sim.Positions(samples), sim.Phases(samples)
	var (
		lines  []explainLine
		center geom.Vec3
	)
	switch mode, ok := explainModes[scenario]; {
	case ok:
		res, err := calib.Estimate(mode, positions, phases, sim.Segments(samples), calib.Config{
			Lambda: lambda, Smooth: explainSmooth, PositiveSide: true, Adaptive: true,
		})
		if err != nil {
			return err
		}
		selected := make(map[*core.Solution]bool, len(res.Adaptive.Selected))
		for _, c := range res.Adaptive.Selected {
			selected[c.Solution] = true
		}
		for _, c := range res.Adaptive.All {
			lines = append(lines, explainCandidate(c, selected[c.Solution]))
		}
		center = res.Center
	case scenario == "circle":
		obsv, err := core.Preprocess(positions, phases, explainSmooth)
		if err != nil {
			return err
		}
		sol, err := core.Locate2D(obsv, lambda, core.StridePairs(len(obsv), len(obsv)/4), core.DefaultSolveOptions())
		if err != nil {
			return err
		}
		lines = append(lines, explainCandidate(core.Candidate{Solution: sol}, true))
		center = sol.Position
	default:
		return fmt.Errorf("no solver for scenario %q", scenario)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // for the error path; closing twice is harmless
	if err := obs.WriteNDJSON(f, lines); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "lionsim: %d candidates written to %s, estimated center (%g, %g, %g)\n",
		len(lines), path, center.X, center.Y, center.Z)
	return nil
}
