package experiment

import (
	"math"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/hologram"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/sim"
	"github.com/rfid-lion/lion/internal/traject"
)

// Fig14aRow is one antenna position of the 3-D height/depth study.
type Fig14aRow struct {
	Label   string
	Antenna geom.Vec3
	XErr    float64
	YErr    float64
	ZErr    float64
	DistErr float64
}

// Fig14a3D locates the antenna in 3-D at six positions (depth 0.6/0.8/1.0 m,
// height 0/0.2 m) with the two-line scan (Δy = 0.2 m). The paper's shape:
// errors below ~1.5 cm per axis at depth ≤ 0.8 m, growing with depth,
// especially along y and z.
func Fig14a3D(cfg Config) ([]Fig14aRow, *Table, error) {
	tb, err := newTestbed(cfg.seed())
	if err != nil {
		return nil, nil, err
	}
	trials := cfg.trials(10, 3)
	tag := &sim.Tag{ID: "T1", PhaseOffset: tb.rng.Angle()}

	positions := []struct {
		label string
		pos   geom.Vec3
	}{
		{"P1 (y=0.6, z=0)", geom.V3(0, 0.6, 0)},
		{"P2 (y=0.6, z=0.2)", geom.V3(0, 0.6, 0.2)},
		{"P3 (y=0.8, z=0)", geom.V3(0, 0.8, 0)},
		{"P4 (y=0.8, z=0.2)", geom.V3(0, 0.8, 0.2)},
		{"P5 (y=1.0, z=0)", geom.V3(0, 1.0, 0)},
		{"P6 (y=1.0, z=0.2)", geom.V3(0, 1.0, 0.2)},
	}

	var rows []Fig14aRow
	for _, p := range positions {
		// A calibrated antenna: the estimate is judged against the true
		// phase center, so the antenna model needs no displacement here.
		beam, err := rf.NewBeam(geom.V3(0, -1, 0), rf.DefaultBeamwidthRad)
		if err != nil {
			return nil, nil, err
		}
		ant := &sim.Antenna{ID: "A", PhysicalCenter: p.pos, Beam: beam}
		var xe, ye, ze, de float64
		for trial := 0; trial < trials; trial++ {
			scan, err := traject.NewTwoLineScan(-0.6, 0.6, 0.2, 0.1)
			if err != nil {
				return nil, nil, err
			}
			samples, err := tb.reader.Scan(ant, tag, scan)
			if err != nil {
				return nil, nil, err
			}
			obs, err := core.Preprocess(sim.Positions(samples), sim.Phases(samples), smoothWindow)
			if err != nil {
				return nil, nil, err
			}
			in, err := splitTwoLine(obs, samples, tb.lambda)
			if err != nil {
				return nil, nil, err
			}
			// A 0.6 m scanning range keeps the whole scan inside the main
			// beam even at the nearest depth (0.6 m).
			sol, err := core.LocateTwoLine(in, true, core.StructuredOptions{
				ScanRange: 0.6,
				Intervals: []float64{0.2, 0.4, 0.55},
				Solve:     core.DefaultSolveOptions(),
			})
			if err != nil {
				return nil, nil, err
			}
			truth := ant.PhaseCenter()
			xe += math.Abs(sol.Position.X - truth.X)
			ye += math.Abs(sol.Position.Y - truth.Y)
			ze += math.Abs(sol.Position.Z - truth.Z)
			de += sol.Position.Dist(truth)
		}
		n := float64(trials)
		rows = append(rows, Fig14aRow{
			Label:   p.label,
			Antenna: p.pos,
			XErr:    xe / n,
			YErr:    ye / n,
			ZErr:    ze / n,
			DistErr: de / n,
		})
	}
	tbl := &Table{
		Title:   "Fig. 14a — 3-D localization vs height and depth (two-line scan, Δy = 0.2 m)",
		Columns: []string{"position", "x err (cm)", "y err (cm)", "z err (cm)", "dist err (cm)"},
		Notes: []string{
			"paper: all-axis errors < 1.5 cm at depth <= 0.8 m; error grows with depth, mostly on y/z",
		},
	}
	for _, r := range rows {
		tbl.AddRow(r.Label, cm(r.XErr), cm(r.YErr), cm(r.ZErr), cm(r.DistErr))
	}
	return rows, tbl, nil
}

// Fig14bRow is one (depth, method) cell of the 2-D depth sweep.
type Fig14bRow struct {
	Depth   float64
	Method  string
	MeanErr float64
}

// Fig14b2DDepth sweeps the tag-antenna depth from 0.6 m to 1.6 m in the
// conveyor scenario. The environment carries distance-growing noise and
// bursty multipath fades whose rate rises as the line-of-sight weakens, so
// data quality degrades with depth. LION's adaptive window selection keeps
// it in the sub-centimetre regime deep into the sweep; DAH, which ingests
// every sample, degrades with depth (the paper's observation — see
// EXPERIMENTS.md for the crossover deviation).
func Fig14b2DDepth(cfg Config) ([]Fig14bRow, *Table, error) {
	tb, err := newTestbed(cfg.seed())
	if err != nil {
		return nil, nil, err
	}
	// Depth-growing noise plus bursty multipath fades: as the line-of-sight
	// weakens with depth, the channel drops into fades more often — the
	// mechanism the paper blames for DAH's degradation past 1.4 m.
	tb.env.NoiseDistanceRef = 0.8
	tb.env.Fading = &sim.FadeModel{
		RatePerMeter: 0.4,
		RefDistance:  0.8,
		MinLength:    0.05,
		MaxLength:    0.15,
		MaxBias:      1.5,
	}

	trials := cfg.trials(10, 3)
	gridStep := 0.002
	if cfg.Fast {
		gridStep = 0.01
	}
	tag := &sim.Tag{ID: "T1", PhaseOffset: tb.rng.Angle()}
	depths := []float64{0.6, 0.8, 1.0, 1.2, 1.4, 1.6}

	var rows []Fig14bRow
	for _, depth := range depths {
		beam, err := rf.NewBeam(geom.V3(0, -1, 0), rf.DefaultBeamwidthRad)
		if err != nil {
			return nil, nil, err
		}
		ant := &sim.Antenna{ID: "A", PhysicalCenter: geom.V3(0, depth, 0), Beam: beam}
		var lionSum, dahSum float64
		for trial := 0; trial < trials; trial++ {
			// The paper's sliding track is 2.5 m long; the adaptive scheme
			// then picks how much of it to trust.
			p0 := geom.V3(tb.rng.Uniform(-0.1, 0.1), 0, 0)
			trj, err := traject.NewLinear(
				p0.Add(geom.V3(-1.25, 0, 0)), p0.Add(geom.V3(1.25, 0, 0)), 0.1)
			if err != nil {
				return nil, nil, err
			}
			obs, _, err := tb.scanToObs(ant, tag, trj)
			if err != nil {
				return nil, nil, err
			}
			rel := relativeObs(obs, p0)
			trueT := ant.PhaseCenter().Sub(p0)

			// Adaptive selection (Sec. IV-C-1) over scanning windows: both
			// the window *width* and its *position* are swept, since a
			// multipath fade pollutes a localized stretch of the track —
			// some window is clean, and the residual rule finds it.
			// Multi-interval pairing keeps d_r (and therefore depth) well
			// conditioned in every window.
			intervals := []float64{0.2, 0.4, 0.8, 1.2}
			lo, hi := spanX(rel)
			mid := (lo + hi) / 2
			var cands []core.Candidate
			for _, w := range []struct{ center, width float64 }{
				{mid, 2.4},
				{mid, 1.6}, {mid - 0.4, 1.6}, {mid + 0.4, 1.6},
			} {
				sub := windowX(rel, w.center, w.width)
				sol, err := core.Locate2DLineIntervals(sub, tb.lambda,
					intervals, true,
					core.SolveOptions{Weighted: true, MaxIterations: 20})
				cands = append(cands, core.Candidate{
					ScanRange: w.width, Solution: sol, Err: err,
				})
			}
			res, err := core.SelectByAbsResidual(cands)
			if err != nil {
				return nil, nil, err
			}
			lionSum += res.Position.XY().Dist(trueT.XY())

			// DAH searches a box around the nominal deployment (track
			// center at the known depth), not the exact truth — the same
			// knowledge LION starts from.
			prior := geom.V3(0, depth, 0)
			hres, err := hologram.Locate(rel, hologram.Config{
				Lambda:   tb.lambda,
				GridMin:  prior.Add(geom.V3(-0.2, -0.2, 0)),
				GridMax:  prior.Add(geom.V3(0.2, 0.2, 0)),
				GridStep: gridStep,
				Weighted: true,
			})
			if err != nil {
				return nil, nil, err
			}
			dahSum += hres.Position.XY().Dist(trueT.XY())
		}
		n := float64(trials)
		rows = append(rows,
			Fig14bRow{depth, "LION", lionSum / n},
			Fig14bRow{depth, "DAH", dahSum / n},
		)
	}
	tbl := &Table{
		Title:   "Fig. 14b — 2-D localization vs depth (conveyor scenario, multipath fades)",
		Columns: []string{"depth (m)", "method", "mean err (cm)"},
		Notes: []string{
			"paper: LION stays ~0.45 cm through 1.6 m; DAH exceeds 2.5 cm past 1.4 m",
		},
	}
	for _, r := range rows {
		tbl.AddRow(f3(r.Depth), r.Method, cm(r.MeanErr))
	}
	return rows, tbl, nil
}
