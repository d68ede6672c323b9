// Command lioncal runs the LION calibration pipeline on a CSV scan dataset
// (as produced by lionsim or a real LLRP logger): it estimates the
// antenna's phase center with the linear localization model, reports the
// displacement from a user-supplied physical center, and estimates the
// phase offset.
//
// Example:
//
//	lionsim -scenario threeline -o scan.csv
//	lioncal -in scan.csv -mode threeline -physical 0,0.8,0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	lion "github.com/rfid-lion/lion"
	"github.com/rfid-lion/lion/internal/calib"
	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lioncal:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lioncal", flag.ContinueOnError)
	var (
		in   = fs.String("in", "", "input CSV dataset (required)")
		mode = fs.String("mode", "threeline",
			"scan type: threeline, twoline, line, planar, multichannel")
		freq     = fs.Float64("freq", 920.625e6, "carrier frequency, Hz")
		physical = fs.String("physical", "",
			"physical center as x,y,z to report the displacement against")
		smooth    = fs.Int("smooth", 9, "moving-average window (odd), 0 = off")
		interval  = fs.Float64("interval", 0.2, "pairing interval x_o, m (non-adaptive solves)")
		scanRange = fs.Float64("range", 0.8,
			"scanning range, m (0 = use everything; non-adaptive twoline/threeline)")
		adaptive = fs.Bool("adaptive", true,
			"sweep the pairing interval (and, for twoline/threeline, the scanning range) and fuse by the residual rule")
		side = fs.Bool("above", true,
			"target on the positive side (above the plane / +90° of the line)")
		hopFreqs = fs.String("channels", "",
			"comma-separated hop frequencies in Hz, indexed by the dataset's channel column (multichannel mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		fs.Usage()
		return fmt.Errorf("missing -in")
	}
	var phys *geom.Vec3
	if *physical != "" {
		p, err := geom.ParseVec3(*physical)
		if err != nil {
			return fmt.Errorf("-physical: %w", err)
		}
		phys = &p
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	samples, err := dataset.Read(f)
	if err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("dataset %s is empty", *in)
	}

	band := lion.Band{FrequencyHz: *freq}
	if err := band.Validate(); err != nil {
		return err
	}
	lambda := band.Wavelength()

	var res calib.Result
	if *mode == "multichannel" {
		res.Center, err = locateMultiChannel(samples, *hopFreqs, *smooth)
	} else {
		res, err = calib.Estimate(*mode, sim.Positions(samples), sim.Phases(samples), sim.Segments(samples),
			scanConfig(lambda, *smooth, *interval, *scanRange, *adaptive, *side))
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "reads:            %d\n", len(samples))
	fmt.Fprintf(stdout, "wavelength:       %.4f m\n", lambda)
	fmt.Fprintf(stdout, "estimated center: %v\n", res.Center)
	if phys != nil {
		cal := lion.CenterCalibration{
			PhysicalCenter:  *phys,
			EstimatedCenter: res.Center,
		}
		fmt.Fprintf(stdout, "physical center:  %v\n", *phys)
		fmt.Fprintf(stdout, "displacement:     %v (%.2f cm)\n",
			cal.Displacement(), cal.DisplacementNorm()*100)
	}
	if *mode == "multichannel" {
		// Offsets are channel-specific under hopping; a single figure
		// against one carrier would be misleading.
		fmt.Fprintln(stdout, "phase offset:     per-channel under hopping (not reported)")
		return nil
	}
	fmt.Fprintf(stdout, "phase offset:     %.4f rad (tag + antenna combined)\n", res.Offset)
	return nil
}

// scanConfig maps lioncal's flags onto the calibration config: -interval
// pins the one pairing interval of a non-adaptive solve, while an adaptive
// solve sweeps calib's own interval grid.
func scanConfig(lambda float64, smooth int, interval, scanRange float64, adaptive, side bool) calib.Config {
	cfg := calib.Config{
		Lambda:       lambda,
		Smooth:       smooth,
		ScanRange:    scanRange,
		PositiveSide: side,
		Adaptive:     adaptive,
	}
	if !adaptive {
		cfg.Intervals = []float64{interval}
	}
	return cfg
}

// locateMultiChannel splits a channel-hopped dataset by channel, unwraps
// each channel's profile separately, and runs the joint multi-channel solve
// with the channels in ascending index order.
func locateMultiChannel(samples []sim.Sample, hopFreqs string, smooth int) (lion.Vec3, error) {
	if hopFreqs == "" {
		return lion.Vec3{}, fmt.Errorf("multichannel mode needs -channels")
	}
	var freqs []float64
	for _, part := range strings.Split(hopFreqs, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return lion.Vec3{}, fmt.Errorf("channel frequency %q: %w", part, err)
		}
		freqs = append(freqs, f)
	}
	// Bucket by channel index and solve the channels in ascending order, so
	// the joint system's rows, and hence its bits, are the same every run.
	byChannel := make([][]sim.Sample, len(freqs))
	for _, s := range samples {
		if s.Channel < 0 || s.Channel >= len(freqs) {
			return lion.Vec3{}, fmt.Errorf("channel index %d outside -channels list", s.Channel)
		}
		byChannel[s.Channel] = append(byChannel[s.Channel], s)
	}
	var chans []lion.ChannelObservations
	minLen := 0
	for c, chSamples := range byChannel {
		if len(chSamples) == 0 {
			continue
		}
		band := lion.Band{FrequencyHz: freqs[c]}
		if err := band.Validate(); err != nil {
			return lion.Vec3{}, err
		}
		obs, err := lion.Preprocess(sim.Positions(chSamples), sim.Phases(chSamples), smooth)
		if err != nil {
			return lion.Vec3{}, err
		}
		chans = append(chans, lion.ChannelObservations{Lambda: band.Wavelength(), Obs: obs})
		if minLen == 0 || len(obs) < minLen {
			minLen = len(obs)
		}
	}
	sol, err := lion.Locate2DMultiChannel(chans, minLen/4, lion.DefaultSolveOptions())
	if err != nil {
		return lion.Vec3{}, err
	}
	// A straight pass leaves the perpendicular coordinate out of the joint
	// linear system, and the multi-channel solve does not recover it.
	for c := 0; c < sol.Dim; c++ {
		if !sol.Known[c] {
			return lion.Vec3{}, fmt.Errorf("multichannel solve left %c unknown: the scan geometry does not determine it (a straight pass needs -mode line)", "xyz"[c])
		}
	}
	return sol.Position, nil
}
