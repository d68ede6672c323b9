package experiment

import (
	"math"
	"time"

	"github.com/rfid-lion/lion/internal/calib"
	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/sim"
	"github.com/rfid-lion/lion/internal/stats"
	"github.com/rfid-lion/lion/internal/traject"
)

// smoothWindow is the moving-average window applied to every phase profile,
// matching the paper's preprocessing stage.
const smoothWindow = 9

// testbed bundles the simulated deployment shared by the experiments.
type testbed struct {
	env    *sim.Environment
	reader *sim.Reader
	rng    *stats.RNG
	lambda float64
}

// newTestbed builds a free-space testbed with the paper's defaults and a
// deterministic seed.
func newTestbed(seed int64) (*testbed, error) {
	env, err := sim.NewEnvironment()
	if err != nil {
		return nil, err
	}
	reader, err := sim.NewReader(env, sim.ReaderConfig{RateHz: 100, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &testbed{
		env:    env,
		reader: reader,
		rng:    stats.NewRNG(seed + 1000),
		lambda: env.Wavelength(),
	}, nil
}

// defaultAntenna builds an antenna at the physical center with a realistic
// phase-center displacement (2–3 cm, Fig. 2) and hardware offset, both drawn
// deterministically from the testbed RNG.
func (tb *testbed) defaultAntenna(id string, physical geom.Vec3, boresight geom.Vec3) (*sim.Antenna, error) {
	beam, err := rf.NewBeam(boresight, rf.DefaultBeamwidthRad)
	if err != nil {
		return nil, err
	}
	return &sim.Antenna{
		ID:                id,
		PhysicalCenter:    physical,
		PhaseCenterOffset: tb.randomDisplacement(),
		PhaseOffset:       tb.rng.Uniform(0, 2*math.Pi),
		Beam:              beam,
	}, nil
}

// randomDisplacement draws a phase-center displacement with a guaranteed
// per-axis magnitude of 1.5–3 cm and a random sign, matching the 2–3 cm
// valley offsets the paper measures on real hardware (Fig. 2).
func (tb *testbed) randomDisplacement() geom.Vec3 {
	axis := func() float64 {
		m := tb.rng.Uniform(0.015, 0.03)
		if tb.rng.Float64() < 0.5 {
			return -m
		}
		return m
	}
	return geom.V3(axis(), axis(), axis())
}

// scanToObs runs a scan and preprocesses the samples into a continuous
// (position, unwrapped phase) profile.
func (tb *testbed) scanToObs(ant *sim.Antenna, tag *sim.Tag, trj traject.Trajectory) ([]core.PosPhase, []sim.Sample, error) {
	samples, err := tb.reader.Scan(ant, tag, trj)
	if err != nil {
		return nil, nil, err
	}
	obs, err := core.Preprocess(sim.Positions(samples), sim.Phases(samples), smoothWindow)
	if err != nil {
		return nil, nil, err
	}
	return obs, samples, nil
}

// calibrateAntenna runs the full calibration pipeline of Sec. IV for one
// antenna: a three-line scan around scanCenter estimates the phase center
// with adaptive parameter selection (Sec. IV-C-1), then the same data
// estimates the hardware offset.
func (tb *testbed) calibrateAntenna(ant *sim.Antenna, tag *sim.Tag, scanCenter geom.Vec3) (core.CenterCalibration, float64, error) {
	// A slow calibration scan doubles the sample density — calibration is a
	// one-off, so the extra scan time is well spent.
	scan, err := traject.NewThreeLineScan(traject.ThreeLineConfig{
		XMin: scanCenter.X - 0.6, XMax: scanCenter.X + 0.6,
		YSpacing: 0.2, ZSpacing: 0.2, Speed: 0.05,
	})
	if err != nil {
		return core.CenterCalibration{}, 0, err
	}
	// The scan trajectory is defined around the origin of the tag track;
	// shift it to the requested center.
	offset := geom.V3(0, scanCenter.Y, scanCenter.Z)
	samples, err := tb.reader.Scan(ant, tag, &shiftedTrajectory{inner: scan, offset: offset})
	if err != nil {
		return core.CenterCalibration{}, 0, err
	}
	res, err := calib.Estimate(calib.ModeThreeLine, sim.Positions(samples), sim.Phases(samples),
		sim.Segments(samples), calib.Config{Lambda: tb.lambda, Smooth: smoothWindow, Adaptive: true})
	if err != nil {
		return core.CenterCalibration{}, 0, err
	}
	return core.CenterCalibration{
		AntennaID:       ant.ID,
		PhysicalCenter:  ant.PhysicalCenter,
		EstimatedCenter: res.Center,
	}, res.Offset, nil
}

// shiftedTrajectory translates an inner trajectory by a constant offset,
// preserving segment labels.
type shiftedTrajectory struct {
	inner  traject.Segmented
	offset geom.Vec3
}

var _ traject.Segmented = (*shiftedTrajectory)(nil)

func (s *shiftedTrajectory) Position(t time.Duration) geom.Vec3 {
	return s.inner.Position(t).Add(s.offset)
}

func (s *shiftedTrajectory) Duration() time.Duration { return s.inner.Duration() }

func (s *shiftedTrajectory) SegmentAt(t time.Duration) int { return s.inner.SegmentAt(t) }
