// Command tracking streams a tag's phase reads through the sliding-window
// tracker while the tag rides past the antenna, printing a live position
// estimate every quarter second — the real-time edge-node deployment the
// paper motivates (high time efficiency with limited computing resources).
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	lion "github.com/rfid-lion/lion"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run streams the simulated pass through the tracker and writes the
// estimate table to w.
func run(w io.Writer) error {
	env, err := lion.NewEnvironment()
	if err != nil {
		return err
	}
	reader, err := lion.NewReader(env, lion.ReaderConfig{RateHz: 100, Seed: 21})
	if err != nil {
		return err
	}
	antenna := &lion.Antenna{
		ID:                "gate",
		PhysicalCenter:    lion.V3(0, 0.8, 0),
		PhaseCenterOffset: lion.V3(0.02, -0.01, 0),
	}
	tag := &lion.Tag{ID: "parcel-0042", PhaseOffset: 1.3}

	// Sanity-check the deployment before going live: at this belt speed
	// and read rate, consecutive reads stay within the unwrap limit.
	if !lion.UnwrapSafe(env.Wavelength(), 0.1, 100) {
		return errors.New("belt too fast for this read rate")
	}

	trk, err := lion.NewTracker(lion.TrackerConfig{
		Lambda:       env.Wavelength(),
		AntennaPos:   antenna.PhaseCenter(), // calibrated in advance
		TrackDir:     lion.V3(1, 0, 0),
		Speed:        0.1,
		WindowSize:   500,
		MinWindow:    200,
		Every:        25, // one estimate per quarter second at 100 Hz
		PositiveSide: true,
	})
	if err != nil {
		return err
	}

	// The parcel rides 1.6 m of belt through the read zone.
	track, err := lion.NewLinear(lion.V3(-0.8, 0, 0), lion.V3(0.8, 0, 0), 0.1)
	if err != nil {
		return err
	}
	samples, err := reader.Scan(antenna, tag, track)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "time (s)  est x (cm)  true x (cm)  err (cm)  |residual|")
	count := 0
	for _, s := range samples {
		est, err := trk.Push(s.Time, s.Phase)
		if errors.Is(err, lion.ErrTrackerNotReady) {
			continue
		}
		if err != nil {
			return err
		}
		count++
		if count%4 != 0 {
			continue // print once per second
		}
		fmt.Fprintf(w, "%8.2f  %10.1f  %11.1f  %8.2f  %10.4f\n",
			est.Time.Seconds(),
			est.Position.X*100,
			s.TagPos.X*100,
			est.Position.Dist(s.TagPos)*100,
			est.MeanAbsResidual,
		)
	}
	fmt.Fprintf(w, "\n%d estimates over %.0f s of belt travel\n",
		count, lion.ScanDuration(track).Seconds())
	return nil
}
