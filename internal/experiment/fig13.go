package experiment

import (
	"time"

	"github.com/rfid-lion/lion/internal/calib"
	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/hologram"
	"github.com/rfid-lion/lion/internal/sim"
	"github.com/rfid-lion/lion/internal/traject"
)

// Fig13Row is one (case, method) cell of the overall-accuracy study.
type Fig13Row struct {
	Case    string // "2D+", "2D-", "3D+", "3D-"
	Method  string // "LION" or "DAH"
	MeanErr float64
	// MeanTime is the average solver wall-clock per localization.
	MeanTime time.Duration
}

// fig13Setup holds the calibrated deployment shared by all Fig. 13 trials.
// The paper's 2-D experiments put the antenna at the tag's height; the 3-D
// experiments raise it by up to 20 cm, so the two cases use separate
// antennas, each calibrated in advance.
type fig13Setup struct {
	tb      *testbed
	ant2D   *sim.Antenna
	ant3D   *sim.Antenna
	tag     *sim.Tag
	calib2D core.CenterCalibration
	calib3D core.CenterCalibration
}

func newFig13Setup(cfg Config) (*fig13Setup, error) {
	tb, err := newTestbed(cfg.seed())
	if err != nil {
		return nil, err
	}
	ant2D, err := tb.defaultAntenna("A-2D", geom.V3(0, 0.8, 0), geom.V3(0, -1, 0))
	if err != nil {
		return nil, err
	}
	ant3D, err := tb.defaultAntenna("A-3D", geom.V3(0, 0.8, 0.12), geom.V3(0, -1, 0))
	if err != nil {
		return nil, err
	}
	tag := &sim.Tag{ID: "T1", PhaseOffset: tb.rng.Angle()}
	calib2D, _, err := tb.calibrateAntenna(ant2D, tag, geom.V3(0, 0, 0))
	if err != nil {
		return nil, err
	}
	calib3D, _, err := tb.calibrateAntenna(ant3D, tag, geom.V3(0, 0, 0))
	if err != nil {
		return nil, err
	}
	return &fig13Setup{
		tb:      tb,
		ant2D:   ant2D,
		ant3D:   ant3D,
		tag:     tag,
		calib2D: calib2D,
		calib3D: calib3D,
	}, nil
}

// relativeObs shifts a scan's ground-truth positions into the track frame
// anchored at p0: the algorithms know the tag's motion but not its absolute
// start.
func relativeObs(obs []core.PosPhase, p0 geom.Vec3) []core.PosPhase {
	out := make([]core.PosPhase, len(obs))
	for i, o := range obs {
		out[i] = core.PosPhase{Pos: o.Pos.Sub(p0), Theta: o.Theta}
	}
	return out
}

// fig13Trial carries one trial's pre-generated scan data, so the solver
// phase is a pure function of it and can fan out across workers. Generation
// consumes the shared testbed RNG and therefore stays serial.
type fig13Trial struct {
	rel2D  []core.PosPhase
	p02D   geom.Vec3
	true2D geom.Vec3 // antenna in the 2-D track frame

	in3D   core.TwoLineInput
	sub3D  []core.PosPhase // subsampled observations for the DAH grid
	p03D   geom.Vec3
	true3D geom.Vec3
}

// fig13Result is one trial's solver outputs: errors with[+]/without[-]
// calibration for both methods, plus solver wall-clock.
type fig13Result struct {
	lionPlus2D, lionMinus2D, dahPlus2D, dahMinus2D float64
	lionTime2D, dahTime2D                          time.Duration
	lionPlus3D, lionMinus3D, dahPlus3D, dahMinus3D float64
	lionTime3D, dahTime3D                          time.Duration
}

// gen2D draws one 2-D trial: a random tag start and a linear scan past the
// antenna.
func (s *fig13Setup) gen2D(t *fig13Trial) error {
	p0 := geom.V3(s.tb.rng.Uniform(-0.2, 0.2), 0, 0)
	trj, err := traject.NewLinear(p0.Add(geom.V3(-0.5, 0, 0)), p0.Add(geom.V3(0.5, 0, 0)), 0.1)
	if err != nil {
		return err
	}
	obs, _, err := s.tb.scanToObs(s.ant2D, s.tag, trj)
	if err != nil {
		return err
	}
	t.rel2D = relativeObs(obs, p0)
	t.p02D = p0
	t.true2D = s.ant2D.PhaseCenter().Sub(p0)
	return nil
}

// gen3D draws one 3-D trial over the two-line scan with 20 cm depth
// interval, including the DAH subsample (the paper shrinks the 3-D search
// volume to (20 cm)³ the same way).
func (s *fig13Setup) gen3D(t *fig13Trial) error {
	p0 := geom.V3(s.tb.rng.Uniform(-0.2, 0.2), 0, 0)
	scan, err := traject.NewTwoLineScan(-0.5, 0.5, 0.2, 0.1)
	if err != nil {
		return err
	}
	shifted := &shiftedTrajectory{inner: scan, offset: p0}
	samples, err := s.tb.reader.Scan(s.ant3D, s.tag, shifted)
	if err != nil {
		return err
	}
	obs, err := core.Preprocess(sim.Positions(samples), sim.Phases(samples), smoothWindow)
	if err != nil {
		return err
	}
	rel := relativeObs(obs, p0)
	l1, l2, _ := calib.Lines(rel, sim.Segments(samples))
	in := core.TwoLineInput{L1: l1, L2: l2, Lambda: s.tb.lambda}
	sub := rel
	if len(sub) > 150 {
		step := len(sub) / 150
		ds := make([]core.PosPhase, 0, 150)
		for i := 0; i < len(sub); i += step {
			ds = append(ds, sub[i])
		}
		sub = ds
	}
	t.in3D = in
	t.sub3D = sub
	t.p03D = p0
	t.true3D = s.ant3D.PhaseCenter().Sub(p0)
	return nil
}

// solve2D runs both solvers on a pre-generated 2-D trial.
func (s *fig13Setup) solve2D(t *fig13Trial, dahStep float64, r *fig13Result) error {
	start := time.Now()
	sol, err := core.Locate2DLine(t.rel2D, s.tb.lambda, 0.2, true, core.DefaultSolveOptions())
	if err != nil {
		return err
	}
	r.lionTime2D = time.Since(start)

	estimate := func(anchor geom.Vec3, tHat geom.Vec3) float64 {
		p0Hat := anchor.Sub(tHat)
		return p0Hat.XY().Dist(t.p02D.XY())
	}
	r.lionPlus2D = estimate(s.calib2D.EstimatedCenter, sol.Position)
	r.lionMinus2D = estimate(s.ant2D.PhysicalCenter, sol.Position)

	// DAH over a 20 cm box around the true relative antenna position
	// (the paper reduces the search area the same way).
	start = time.Now()
	hres, err := hologram.Locate(t.rel2D, hologram.Config{
		Lambda:   s.tb.lambda,
		GridMin:  t.true2D.Add(geom.V3(-0.1, -0.1, 0)),
		GridMax:  t.true2D.Add(geom.V3(0.1, 0.1, 0)),
		GridStep: dahStep,
		Weighted: true,
	})
	if err != nil {
		return err
	}
	r.dahTime2D = time.Since(start)
	hpos := hres.Position
	hpos.Z = 0
	r.dahPlus2D = estimate(s.calib2D.EstimatedCenter, hpos)
	r.dahMinus2D = estimate(s.ant2D.PhysicalCenter, hpos)
	return nil
}

// solve3D runs both solvers on a pre-generated 3-D trial.
func (s *fig13Setup) solve3D(t *fig13Trial, dahStep float64, r *fig13Result) error {
	start := time.Now()
	twoOpts := core.DefaultStructuredOptions()
	twoOpts.Intervals = []float64{0.2, 0.4, 0.7} // long pairs pin d_r and z
	sol, err := core.LocateTwoLine(t.in3D, true, twoOpts)
	if err != nil {
		return err
	}
	r.lionTime3D = time.Since(start)

	estimate := func(anchor geom.Vec3, tHat geom.Vec3) float64 {
		return anchor.Sub(tHat).Dist(t.p03D)
	}
	r.lionPlus3D = estimate(s.calib3D.EstimatedCenter, sol.Position)
	r.lionMinus3D = estimate(s.ant3D.PhysicalCenter, sol.Position)

	start = time.Now()
	hres, err := hologram.Locate(t.sub3D, hologram.Config{
		Lambda:   s.tb.lambda,
		GridMin:  t.true3D.Add(geom.V3(-0.1, -0.1, -0.1)),
		GridMax:  t.true3D.Add(geom.V3(0.1, 0.1, 0.1)),
		GridStep: dahStep,
		Weighted: true,
	})
	if err != nil {
		return err
	}
	r.dahTime3D = time.Since(start)
	r.dahPlus3D = estimate(s.calib3D.EstimatedCenter, hres.Position)
	r.dahMinus3D = estimate(s.ant3D.PhysicalCenter, hres.Position)
	return nil
}

// Fig13Overall reproduces the headline result: phase calibration improves
// accuracy by large factors (paper: 6× in 2-D, 2.1× in 3-D), LION edges out
// DAH at a fraction of the compute (Figs. 13a and 13b).
func Fig13Overall(cfg Config) ([]Fig13Row, *Table, error) {
	s, err := newFig13Setup(cfg)
	if err != nil {
		return nil, nil, err
	}
	trials := cfg.trials(20, 3)
	dahStep2D := 0.002
	dahStep3D := 0.005
	if cfg.Fast {
		dahStep2D, dahStep3D = 0.01, 0.02
	}

	type acc struct {
		errSum  float64
		timeSum time.Duration
	}
	cases := map[string]*acc{}
	add := func(key string, e float64, d time.Duration) {
		a := cases[key]
		if a == nil {
			a = &acc{}
			cases[key] = a
		}
		a.errSum += e
		a.timeSum += d
	}

	// Phase 1 — serial: draw every trial's scan data from the seeded RNG in
	// the fixed order (2-D then 3-D per trial, matching the serial harness).
	inputs := make([]fig13Trial, trials)
	for i := range inputs {
		if err := s.gen2D(&inputs[i]); err != nil {
			return nil, nil, err
		}
		if err := s.gen3D(&inputs[i]); err != nil {
			return nil, nil, err
		}
	}
	// Phase 2 — parallel: solve every trial on the worker pool. Each solve
	// is a pure function of its pre-generated input, and solveTrials keys
	// results by trial index, so the reduction below is order-identical to
	// the serial loop.
	results, err := solveTrials(trials, func(i int) (fig13Result, error) {
		var r fig13Result
		if err := s.solve2D(&inputs[i], dahStep2D, &r); err != nil {
			return r, err
		}
		if err := s.solve3D(&inputs[i], dahStep3D, &r); err != nil {
			return r, err
		}
		return r, nil
	})
	if err != nil {
		return nil, nil, err
	}
	// Phase 3 — serial reduction in trial order.
	for _, r := range results {
		add("2D+/LION", r.lionPlus2D, r.lionTime2D)
		add("2D-/LION", r.lionMinus2D, r.lionTime2D)
		add("2D+/DAH", r.dahPlus2D, r.dahTime2D)
		add("2D-/DAH", r.dahMinus2D, r.dahTime2D)

		add("3D+/LION", r.lionPlus3D, r.lionTime3D)
		add("3D-/LION", r.lionMinus3D, r.lionTime3D)
		add("3D+/DAH", r.dahPlus3D, r.dahTime3D)
		add("3D-/DAH", r.dahMinus3D, r.dahTime3D)
	}

	order := []struct{ c, m string }{
		{"2D+", "LION"}, {"2D+", "DAH"},
		{"2D-", "LION"}, {"2D-", "DAH"},
		{"3D+", "LION"}, {"3D+", "DAH"},
		{"3D-", "LION"}, {"3D-", "DAH"},
	}
	var rows []Fig13Row
	for _, o := range order {
		a := cases[o.c+"/"+o.m]
		rows = append(rows, Fig13Row{
			Case:     o.c,
			Method:   o.m,
			MeanErr:  a.errSum / float64(trials),
			MeanTime: a.timeSum / time.Duration(trials),
		})
	}
	tbl := &Table{
		Title:   "Fig. 13 — overall accuracy and cost (with[+]/without[-] calibration)",
		Columns: []string{"case", "method", "mean err (cm)", "solver time (s)"},
		Notes: []string{
			"paper: calibration improves 2D accuracy ~6x and 3D ~2.1x",
			"paper: LION 0.48 cm vs DAH 0.69 cm (2D); 2.33 vs 2.61 cm (3D)",
			"paper: LION is dramatically cheaper than DAH, especially in 3D",
		},
	}
	for _, r := range rows {
		tbl.AddRow(r.Case, r.Method, cm(r.MeanErr), secs(r.MeanTime.Seconds()))
	}
	return rows, tbl, nil
}
