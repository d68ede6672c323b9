package experiment

import (
	"math"
	"strconv"
	"time"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/dsp"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/hologram"
	"github.com/rfid-lion/lion/internal/mat"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/sim"
	"github.com/rfid-lion/lion/internal/stats"
	"github.com/rfid-lion/lion/internal/traject"
)

// Fig2Result captures the phase-center empirical study (Fig. 2): the valley
// of the unwrapped phase profile appears at the projection of the true phase
// center, not at the physical center.
type Fig2Result struct {
	// Axis is the sweep direction ("horizontal" or "vertical").
	Axis string
	// ValleyOffset is where the measured phase valley sits relative to the
	// physical center, in metres.
	ValleyOffset float64
	// TrueOffset is the injected phase-center displacement along the sweep
	// axis, in metres.
	TrueOffset float64
}

// Fig2PhaseCenter sweeps a tag past an antenna horizontally and vertically
// at 65 cm depth (the paper's setup) and reports where the phase valley
// lands. The physical center is the origin of each sweep axis.
func Fig2PhaseCenter(cfg Config) ([]Fig2Result, *Table, error) {
	tb, err := newTestbed(cfg.seed())
	if err != nil {
		return nil, nil, err
	}
	// The injected displacement mirrors the 2–3 cm the paper measures.
	ant := &sim.Antenna{
		ID:                "A1",
		PhysicalCenter:    geom.V3(0, 0.65, 0),
		PhaseCenterOffset: geom.V3(0.025, 0, -0.02),
	}
	tag := &sim.Tag{ID: "T1"}

	sweep := func(axis string, from, to geom.Vec3, trueOffset float64) (Fig2Result, error) {
		trj, err := traject.NewLinear(from, to, 0.1)
		if err != nil {
			return Fig2Result{}, err
		}
		samples, err := tb.reader.Scan(ant, tag, trj)
		if err != nil {
			return Fig2Result{}, err
		}
		un := dsp.Unwrap(sim.Phases(samples))
		sm, err := dsp.MovingAverage(un, smoothWindow)
		if err != nil {
			return Fig2Result{}, err
		}
		coord := func(i int) float64 {
			if axis == "vertical" {
				return samples[i].TagPos.Z
			}
			return samples[i].TagPos.X
		}
		minI := 0
		for i, v := range sm {
			if v < sm[minI] {
				minI = i
			}
		}
		// The profile is locally quadratic and shallow around the minimum,
		// so a parabola fit over a ±20 cm window locates the valley far more
		// robustly than the raw argmin.
		valley, err := parabolaVertex(sm, coord, minI, 0.2)
		if err != nil {
			return Fig2Result{}, err
		}
		return Fig2Result{Axis: axis, ValleyOffset: valley, TrueOffset: trueOffset}, nil
	}

	horizontal, err := sweep("horizontal",
		geom.V3(-0.5, 0, 0), geom.V3(0.5, 0, 0), ant.PhaseCenterOffset.X)
	if err != nil {
		return nil, nil, err
	}
	vertical, err := sweep("vertical",
		geom.V3(0, 0, -0.5), geom.V3(0, 0, 0.5), ant.PhaseCenterOffset.Z)
	if err != nil {
		return nil, nil, err
	}
	results := []Fig2Result{horizontal, vertical}

	tbl := &Table{
		Title:   "Fig. 2 — phase valley vs physical center (65 cm depth)",
		Columns: []string{"sweep", "valley offset (cm)", "true phase-center offset (cm)"},
		Notes: []string{
			"paper: measured valleys appear 2-3 cm away from the physical center",
		},
	}
	for _, r := range results {
		tbl.AddRow(r.Axis, cm(r.ValleyOffset), cm(r.TrueOffset))
	}
	return results, tbl, nil
}

// parabolaVertex fits θ = a·x² + b·x + c over the samples whose coordinate
// lies within window of the coarse minimum, and returns the vertex −b/2a.
func parabolaVertex(theta []float64, coord func(int) float64, minI int, window float64) (float64, error) {
	center := coord(minI)
	a := mat.NewDense(len(theta), 3)
	var rows [][3]float64
	var rhs []float64
	for i, v := range theta {
		x := coord(i)
		if math.Abs(x-center) > window {
			continue
		}
		rows = append(rows, [3]float64{x * x, x, 1})
		rhs = append(rhs, v)
	}
	if len(rows) < 3 {
		return center, nil
	}
	a = mat.NewDense(len(rows), 3)
	for r, row := range rows {
		a.Set(r, 0, row[0])
		a.Set(r, 1, row[1])
		a.Set(r, 2, row[2])
	}
	coef, err := mat.LeastSquares(a, rhs)
	if err != nil {
		return 0, err
	}
	if coef[0] <= 0 {
		return center, nil // not convex: fall back to the argmin
	}
	return -coef[1] / (2 * coef[0]), nil
}

// Fig3Result is one antenna-tag pair's static phase statistics (Fig. 3).
type Fig3Result struct {
	Antenna   string
	Tag       string
	MeanPhase float64 // circular mean of the reported phase, radians
	StdPhase  float64 // dispersion around the mean, radians
}

// Fig3PhaseOffsets reproduces the hardware-interference study: four antennas
// and four tags, 500 reads per pair with the tag fixed 1 m in front of the
// antenna. Different pairs land on visibly different mean phases while each
// pair stays tight — the per-device offsets of Eq. 1.
func Fig3PhaseOffsets(cfg Config) ([]Fig3Result, *Table, error) {
	tb, err := newTestbed(cfg.seed())
	if err != nil {
		return nil, nil, err
	}
	reads := cfg.trials(500, 50)

	const n = 4
	antennas := make([]*sim.Antenna, n)
	tags := make([]*sim.Tag, n)
	for i := 0; i < n; i++ {
		antennas[i] = &sim.Antenna{
			ID:             string(rune('A' + i)),
			PhysicalCenter: geom.V3(0, 0, 0),
			PhaseOffset:    tb.rng.Angle(),
		}
		tags[i] = &sim.Tag{
			ID:          string(rune('W' + i)),
			PhaseOffset: tb.rng.Angle(),
		}
	}
	tagPos := geom.V3(0, 1, 0)

	var results []Fig3Result
	for _, ant := range antennas {
		for _, tag := range tags {
			samples, err := tb.reader.ReadStatic(ant, tag, tagPos, reads)
			if err != nil {
				return nil, nil, err
			}
			mean := circularMean(sim.Phases(samples))
			var devs []float64
			for _, s := range samples {
				devs = append(devs, rf.WrapPhaseSigned(s.Phase-mean))
			}
			results = append(results, Fig3Result{
				Antenna:   ant.ID,
				Tag:       tag.ID,
				MeanPhase: mean,
				StdPhase:  stats.StdDev(devs),
			})
		}
	}
	tbl := &Table{
		Title:   "Fig. 3 — phase offsets across antenna-tag pairs (static, 1 m)",
		Columns: []string{"antenna", "tag", "mean phase (rad)", "std (rad)"},
		Notes: []string{
			"pairs differ by device-dependent offsets while each pair stays tight",
		},
	}
	for _, r := range results {
		tbl.AddRow(r.Antenna, r.Tag, f3(r.MeanPhase), f3(r.StdPhase))
	}
	return results, tbl, nil
}

func circularMean(phases []float64) float64 {
	var s, c float64
	for _, p := range phases {
		sp, cp := math.Sincos(p)
		s += sp
		c += cp
	}
	return rf.WrapPhase(math.Atan2(s, c))
}

// Fig4Result summarises the hologram illustration (Fig. 4).
type Fig4Result struct {
	Weighted bool
	// RidgeDistance is the distance from the true antenna position to the
	// nearest high-likelihood cell: with only two measurements the
	// candidates trace a hyperbola, and that hyperbola must pass through
	// the antenna even though no single peak is identifiable.
	RidgeDistance float64
	// HighLikelihoodCells counts grid cells scoring above 95% of the peak —
	// the hyperbola-shaped ridge that weighting is supposed to thin out.
	HighLikelihoodCells int
	// Elapsed is the wall-clock hologram build time.
	Elapsed time.Duration
}

// Fig4Hologram rebuilds the example hologram: two tag positions at
// (±0.3, 0), antenna at (0.5, 0.5), millimetre grid. With only two
// measurements the high-likelihood cells trace a hyperbola; the augmented
// weights concentrate the mass. It also demonstrates the cost the paper
// quotes (~0.8 s for a simple hologram).
func Fig4Hologram(cfg Config) ([]Fig4Result, *Table, error) {
	ant := geom.V3(0.5, 0.5, 0)
	lambda := rf.DefaultBand().Wavelength()
	rng := stats.NewRNG(cfg.seed())
	tagPositions := []geom.Vec3{geom.V3(-0.3, 0, 0), geom.V3(0.3, 0, 0)}
	obs := make([]core.PosPhase, len(tagPositions))
	for i, p := range tagPositions {
		obs[i] = core.PosPhase{
			Pos:   p,
			Theta: rf.WrapPhase(rf.PhaseOfDistance(ant.Dist(p), lambda) + rng.Normal(0, 0.1)),
		}
	}
	step := 0.001
	if cfg.Fast {
		step = 0.01
	}
	hcfg := hologram.Config{
		Lambda:  lambda,
		GridMin: geom.V3(0, 0, 0), GridMax: geom.V3(1, 1, 0),
		GridStep: step,
	}

	run := func(weighted bool) (Fig4Result, error) {
		hc := hcfg
		hc.Weighted = weighted
		start := time.Now()
		res, err := hologram.Locate(obs, hc)
		if err != nil {
			return Fig4Result{}, err
		}
		elapsed := time.Since(start)
		// Trace the high-likelihood ridge with a second scoring pass.
		count, ridgeDist := ridgeStats(obs, hc, res.Likelihood*0.95, ant)
		return Fig4Result{
			Weighted:            weighted,
			RidgeDistance:       ridgeDist,
			HighLikelihoodCells: count,
			Elapsed:             elapsed,
		}, nil
	}
	plain, err := run(false)
	if err != nil {
		return nil, nil, err
	}
	weighted, err := run(true)
	if err != nil {
		return nil, nil, err
	}
	results := []Fig4Result{plain, weighted}
	tbl := &Table{
		Title:   "Fig. 4 — differential hologram from two tag positions",
		Columns: []string{"weights", "ridge dist to antenna (cm)", "cells >95% of peak", "build time (s)"},
		Notes: []string{
			"two measurements leave a hyperbola-shaped ridge of candidates passing through the antenna",
			"paper: building this simple hologram takes ~0.8 s at 1 mm",
		},
	}
	for _, r := range results {
		label := "off"
		if r.Weighted {
			label = "on"
		}
		tbl.AddRow(label, cm(r.RidgeDistance), strconv.Itoa(r.HighLikelihoodCells), secs(r.Elapsed.Seconds()))
	}
	return results, tbl, nil
}

// ridgeStats scores the grid once more, counting cells above the threshold
// and finding the ridge's closest approach to the true antenna position.
func ridgeStats(obs []core.PosPhase, hc hologram.Config, threshold float64, ant geom.Vec3) (int, float64) {
	ref := len(obs) / 2
	k := 4 * 3.141592653589793 / hc.Lambda
	refPos, refTheta := obs[ref].Pos, obs[ref].Theta
	count := 0
	closest := hc.GridMax.Dist(hc.GridMin)
	nx := int((hc.GridMax.X-hc.GridMin.X)/hc.GridStep) + 1
	ny := int((hc.GridMax.Y-hc.GridMin.Y)/hc.GridStep) + 1
	for iy := 0; iy < ny; iy++ {
		y := hc.GridMin.Y + float64(iy)*hc.GridStep
		for ix := 0; ix < nx; ix++ {
			p := geom.V3(hc.GridMin.X+float64(ix)*hc.GridStep, y, hc.GridMin.Z)
			dRef := p.Dist(refPos)
			var re, im float64
			for _, o := range obs {
				predicted := k * (p.Dist(o.Pos) - dRef)
				s, c := math.Sincos((o.Theta - refTheta) - predicted)
				re += c
				im += s
			}
			if math.Hypot(re, im)/float64(len(obs)) >= threshold {
				count++
				if d := p.Dist(ant); d < closest {
					closest = d
				}
			}
		}
	}
	return count, closest
}
