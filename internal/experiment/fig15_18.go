package experiment

import (
	"math"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/sim"
	"github.com/rfid-lion/lion/internal/stats"
	"github.com/rfid-lion/lion/internal/traject"
)

// fig15Deployment is the default methodology of Secs. V-D/E: tag on the
// x-axis track, antenna 0.8 m deep, multipath floor, random tag positions.
type fig15Deployment struct {
	tb  *testbed
	ant *sim.Antenna
	tag *sim.Tag
}

func newFig15Deployment(seed int64) (*fig15Deployment, error) {
	tb, err := newTestbed(seed)
	if err != nil {
		return nil, err
	}
	// Bursty multipath fades model the room's noise pollution; they are
	// what the weighting and the parameter selection are built to reject.
	tb.env.Fading = &sim.FadeModel{
		RatePerMeter: 0.6, RefDistance: 0.8,
		MinLength: 0.05, MaxLength: 0.15, MaxBias: 1.5,
	}
	beam, err := rf.NewBeam(geom.V3(0, -1, 0), rf.DefaultBeamwidthRad)
	if err != nil {
		return nil, err
	}
	return &fig15Deployment{
		tb:  tb,
		ant: &sim.Antenna{ID: "A", PhysicalCenter: geom.V3(0, 0.8, 0), Beam: beam},
		tag: &sim.Tag{ID: "T", PhaseOffset: tb.rng.Angle()},
	}, nil
}

// scanRelative runs one conveyor scan from a random start and returns the
// track-frame observations plus the true antenna position in that frame.
func (d *fig15Deployment) scanRelative(halfSpan float64) ([]core.PosPhase, geom.Vec3, error) {
	p0 := geom.V3(d.tb.rng.Uniform(-0.1, 0.1), 0, 0)
	trj, err := traject.NewLinear(
		p0.Add(geom.V3(-halfSpan, 0, 0)), p0.Add(geom.V3(halfSpan, 0, 0)), 0.1)
	if err != nil {
		return nil, geom.Vec3{}, err
	}
	obs, _, err := d.tb.scanToObs(d.ant, d.tag, trj)
	if err != nil {
		return nil, geom.Vec3{}, err
	}
	return relativeObs(obs, p0), d.ant.PhaseCenter().Sub(p0), nil
}

// Fig15Row is one estimator's accuracy in the weighting study.
type Fig15Row struct {
	Method  string
	MeanErr float64
	P90Err  float64
	Errors  []float64
}

// Fig15Weights compares weighted least squares with plain least squares over
// randomly placed tags at 0.8 m depth (the paper: WLS 0.43 cm vs LS
// 0.92 cm).
func Fig15Weights(cfg Config) ([]Fig15Row, *Table, error) {
	d, err := newFig15Deployment(cfg.seed())
	if err != nil {
		return nil, nil, err
	}
	trials := cfg.trials(30, 5)

	var wlsErrs, lsErrs []float64
	for trial := 0; trial < trials; trial++ {
		rel, trueT, err := d.scanRelative(0.55)
		if err != nil {
			return nil, nil, err
		}
		wls, err := core.Locate2DLine(rel, d.tb.lambda, 0.2, true, core.DefaultSolveOptions())
		if err != nil {
			return nil, nil, err
		}
		ls, err := core.Locate2DLine(rel, d.tb.lambda, 0.2, true,
			core.SolveOptions{Weighted: false})
		if err != nil {
			return nil, nil, err
		}
		wlsErrs = append(wlsErrs, wls.Position.XY().Dist(trueT.XY()))
		lsErrs = append(lsErrs, ls.Position.XY().Dist(trueT.XY()))
	}
	wlsP90, _ := stats.Percentile(wlsErrs, 90)
	lsP90, _ := stats.Percentile(lsErrs, 90)
	rows := []Fig15Row{
		{"WLS", stats.Mean(wlsErrs), wlsP90, wlsErrs},
		{"LS", stats.Mean(lsErrs), lsP90, lsErrs},
	}
	tbl := &Table{
		Title:   "Fig. 15 — weighted vs ordinary least squares (depth 0.8 m, multipath)",
		Columns: []string{"method", "mean err (cm)", "p90 err (cm)"},
		Notes: []string{
			"paper: WLS 0.43 cm vs LS 0.92 cm on average",
		},
	}
	for _, r := range rows {
		tbl.AddRow(r.Method, cm(r.MeanErr), cm(r.P90Err))
	}
	return rows, tbl, nil
}

// Fig16Row is one scanning-range cell of the range study (Figs. 16–17).
type Fig16Row struct {
	Range       float64
	MeanAbsRes  float64 // mean absolute WLS residual (data-quality signal)
	MeanDistErr float64
}

// restrictRange keeps only observations with |x| ≤ range/2 around the scan
// center.
func restrictRange(obs []core.PosPhase, scanRange float64) []core.PosPhase {
	if scanRange <= 0 {
		return obs
	}
	lo, hi := spanX(obs)
	return windowX(obs, (lo+hi)/2, scanRange)
}

// spanX returns the x-extent of the observations.
func spanX(obs []core.PosPhase) (lo, hi float64) {
	lo, hi = obs[0].Pos.X, obs[0].Pos.X
	for _, o := range obs {
		if o.Pos.X < lo {
			lo = o.Pos.X
		}
		if o.Pos.X > hi {
			hi = o.Pos.X
		}
	}
	return lo, hi
}

// windowX keeps observations with |x − center| ≤ width/2.
func windowX(obs []core.PosPhase, center, width float64) []core.PosPhase {
	out := make([]core.PosPhase, 0, len(obs))
	for _, o := range obs {
		if math.Abs(o.Pos.X-center) <= width/2 {
			out = append(out, o)
		}
	}
	return out
}

// Fig16_17Range sweeps the scanning range from 0.6 m to 1.1 m with the
// interval fixed at 0.25 m and reports both the WLS residual and the
// distance error per range. The paper's shape: the residual closest to zero
// coincides with the minimum error (at ~0.8 m); too small a range is poorly
// conditioned, too large a range pulls in off-beam noise.
func Fig16_17Range(cfg Config) ([]Fig16Row, *Table, error) {
	d, err := newFig15Deployment(cfg.seed())
	if err != nil {
		return nil, nil, err
	}
	trials := cfg.trials(30, 5)
	ranges := []float64{0.6, 0.7, 0.8, 0.9, 1.0, 1.1}

	sums := make(map[float64]*[2]float64, len(ranges))
	for _, rg := range ranges {
		sums[rg] = &[2]float64{}
	}
	for trial := 0; trial < trials; trial++ {
		rel, trueT, err := d.scanRelative(0.62)
		if err != nil {
			return nil, nil, err
		}
		for _, rg := range ranges {
			sub := restrictRange(rel, rg)
			sol, err := core.Locate2DLine(sub, d.tb.lambda, 0.25, true, core.DefaultSolveOptions())
			if err != nil {
				return nil, nil, err
			}
			s := sums[rg]
			s[0] += sol.MeanAbsResidual
			s[1] += sol.Position.XY().Dist(trueT.XY())
		}
	}
	var rows []Fig16Row
	for _, rg := range ranges {
		s := sums[rg]
		rows = append(rows, Fig16Row{
			Range:       rg,
			MeanAbsRes:  s[0] / float64(trials),
			MeanDistErr: s[1] / float64(trials),
		})
	}
	tbl := &Table{
		Title:   "Figs. 16-17 — scanning range vs WLS residual and distance error (interval 0.25 m)",
		Columns: []string{"range (m)", "mean |residual|", "dist err (cm)"},
		Notes: []string{
			"paper: the range whose residual is closest to zero (0.8 m) also minimises the error",
			"this reproduction reports the mean |residual|; see EXPERIMENTS.md for the deviation note",
		},
	}
	for _, r := range rows {
		tbl.AddRow(f3(r.Range), f3(r.MeanAbsRes), cm(r.MeanDistErr))
	}
	return rows, tbl, nil
}

// Fig18Row is one scanning-interval cell of the interval study.
type Fig18Row struct {
	Interval    float64
	MeanAbsRes  float64
	MeanDistErr float64
}

// Fig18Interval sweeps the pairing interval from 0.10 m to 0.35 m with the
// scanning range fixed at 0.8 m. The paper's shape: the error drops sharply
// once the interval reaches ~0.2 m (larger intervals mean larger phase
// differences, so relatively less noise), and the residual again identifies
// the good choice.
func Fig18Interval(cfg Config) ([]Fig18Row, *Table, error) {
	d, err := newFig15Deployment(cfg.seed())
	if err != nil {
		return nil, nil, err
	}
	trials := cfg.trials(30, 5)
	intervals := []float64{0.10, 0.15, 0.20, 0.25, 0.30, 0.35}

	sums := make(map[float64]*[2]float64, len(intervals))
	for _, iv := range intervals {
		sums[iv] = &[2]float64{}
	}
	for trial := 0; trial < trials; trial++ {
		rel, trueT, err := d.scanRelative(0.62)
		if err != nil {
			return nil, nil, err
		}
		sub := restrictRange(rel, 0.8)
		for _, iv := range intervals {
			sol, err := core.Locate2DLine(sub, d.tb.lambda, iv, true, core.DefaultSolveOptions())
			if err != nil {
				return nil, nil, err
			}
			s := sums[iv]
			s[0] += sol.MeanAbsResidual
			s[1] += sol.Position.XY().Dist(trueT.XY())
		}
	}
	var rows []Fig18Row
	for _, iv := range intervals {
		s := sums[iv]
		rows = append(rows, Fig18Row{
			Interval:    iv,
			MeanAbsRes:  s[0] / float64(trials),
			MeanDistErr: s[1] / float64(trials),
		})
	}
	tbl := &Table{
		Title:   "Fig. 18 — scanning interval vs distance error (range 0.8 m)",
		Columns: []string{"interval (m)", "mean |residual|", "dist err (cm)"},
		Notes: []string{
			"paper: error drops markedly once the interval reaches ~0.2 m",
		},
	}
	for _, r := range rows {
		tbl.AddRow(f3(r.Interval), f3(r.MeanAbsRes), cm(r.MeanDistErr))
	}
	return rows, tbl, nil
}
