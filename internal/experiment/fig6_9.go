package experiment

import (
	"math"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/hologram"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/stats"
)

// simLambda is the wavelength used by the pure-simulation studies, matching
// the paper's testbed carrier.
var simLambda = rf.DefaultBand().Wavelength()

// genCircleObs synthesises one noisy scan of a tag circling the origin,
// observed by an antenna at ant. The noise is the paper's N(0, 0.1).
func genCircleObs(ant geom.Vec3, radius float64, n int, noiseStd float64, rng *stats.RNG) []core.PosPhase {
	obs := make([]core.PosPhase, n)
	for i := range obs {
		a := 2 * math.Pi * float64(i) / float64(n)
		p := geom.V3(radius*math.Cos(a), radius*math.Sin(a), 0)
		theta := rf.PhaseOfDistance(ant.Dist(p), simLambda)
		if noiseStd > 0 {
			theta += rng.Normal(0, noiseStd)
		}
		obs[i] = core.PosPhase{Pos: p, Theta: theta}
	}
	return obs
}

// smoothObs applies the preprocessing moving average to an already-unwrapped
// profile, mirroring the smoothing stage every pipeline runs (Sec. IV-A-2).
func smoothObs(obs []core.PosPhase, window int) []core.PosPhase {
	positions := make([]geom.Vec3, len(obs))
	wrapped := make([]float64, len(obs))
	for i, o := range obs {
		positions[i] = o.Pos
		wrapped[i] = rf.WrapPhase(o.Theta)
	}
	out, err := core.Preprocess(positions, wrapped, window)
	if err != nil {
		return obs
	}
	return out
}

// Fig6Row is one (direction, method) cell of Fig. 6.
type Fig6Row struct {
	Direction string
	Method    string
	DistErr   float64 // mean distance error, metres
	XErr      float64 // mean |error| along x, metres
	YErr      float64 // mean |error| along y, metres
}

// Fig6Directions compares LION with the hologram baseline for a single
// antenna at three directions (0°, 45°, 90°) around a circular tag
// trajectory of radius 0.3 m, repeated over noisy trials. The paper's two
// observations to reproduce: the two methods are comparable, and the
// per-axis errors rotate with the antenna direction (errors distribute along
// the trajectory-center → antenna line).
func Fig6Directions(cfg Config) ([]Fig6Row, *Table, error) {
	rng := stats.NewRNG(cfg.seed())
	trials := cfg.trials(100, 8)
	gridStep := 0.002
	if cfg.Fast {
		gridStep = 0.01
	}
	directions := []struct {
		name string
		ant  geom.Vec3
	}{
		{"0 deg", geom.V3(1, 0, 0)},
		{"45 deg", geom.V3(0.7071, 0.7071, 0)},
		{"90 deg", geom.V3(0, 1, 0)},
	}

	var rows []Fig6Row
	for _, d := range directions {
		var lionDist, lionX, lionY float64
		var dahDist, dahX, dahY float64
		for trial := 0; trial < trials; trial++ {
			obs := smoothObs(genCircleObs(d.ant, 0.3, 120, 0.1, rng), smoothWindow)
			pairs := core.StridePairs(len(obs), 30)
			sol, err := core.Locate2D(obs, simLambda, pairs, core.DefaultSolveOptions())
			if err != nil {
				return nil, nil, err
			}
			lionDist += sol.Position.Dist(d.ant)
			lionX += math.Abs(sol.Position.X - d.ant.X)
			lionY += math.Abs(sol.Position.Y - d.ant.Y)

			hres, err := hologram.Locate(obs, hologram.Config{
				Lambda:   simLambda,
				GridMin:  d.ant.Add(geom.V3(-0.1, -0.1, 0)),
				GridMax:  d.ant.Add(geom.V3(0.1, 0.1, 0)),
				GridStep: gridStep,
				Weighted: true,
			})
			if err != nil {
				return nil, nil, err
			}
			dahDist += hres.Position.Dist(d.ant)
			dahX += math.Abs(hres.Position.X - d.ant.X)
			dahY += math.Abs(hres.Position.Y - d.ant.Y)
		}
		n := float64(trials)
		rows = append(rows,
			Fig6Row{d.name, "LION", lionDist / n, lionX / n, lionY / n},
			Fig6Row{d.name, "Hologram", dahDist / n, dahX / n, dahY / n},
		)
	}
	tbl := &Table{
		Title:   "Fig. 6 — single-antenna localization at different directions (circle r=0.3 m, noise N(0,0.1))",
		Columns: []string{"direction", "method", "dist err (cm)", "x err (cm)", "y err (cm)"},
		Notes: []string{
			"LION is comparable to the hologram baseline",
			"axis errors rotate with the antenna direction (error lies along center->antenna)",
		},
	}
	for _, r := range rows {
		tbl.AddRow(r.Direction, r.Method, cm(r.DistErr), cm(r.XErr), cm(r.YErr))
	}
	return rows, tbl, nil
}

// Fig9Row is one method's accuracy in the lower-dimension 2-D study.
type Fig9Row struct {
	Method  string
	MeanErr float64
	P90Err  float64
}

// Fig9LowerDim reproduces the 2-D lower-dimension simulation: the tag moves
// along the x-axis from −0.3 m to 0.3 m, the antenna sits at (0.2, 1) m, and
// the perpendicular coordinate is recovered through d_r. LION is compared
// with the hologram baseline over noisy trials.
func Fig9LowerDim(cfg Config) ([]Fig9Row, *Table, error) {
	rng := stats.NewRNG(cfg.seed())
	trials := cfg.trials(100, 8)
	gridStep := 0.002
	if cfg.Fast {
		gridStep = 0.01
	}
	ant := geom.V3(0.2, 1, 0)

	var lionErrs, dahErrs []float64
	for trial := 0; trial < trials; trial++ {
		n := 120
		obs := make([]core.PosPhase, n)
		for i := range obs {
			p := geom.V3(-0.3+0.6*float64(i)/float64(n-1), 0, 0)
			obs[i] = core.PosPhase{
				Pos:   p,
				Theta: rf.PhaseOfDistance(ant.Dist(p), simLambda) + rng.Normal(0, 0.1),
			}
		}
		obs = smoothObs(obs, smoothWindow)
		sol, err := core.Locate2DLine(obs, simLambda, 0.2, true, core.DefaultSolveOptions())
		if err != nil {
			return nil, nil, err
		}
		lionErrs = append(lionErrs, sol.Position.Dist(ant))

		hres, err := hologram.Locate(obs, hologram.Config{
			Lambda:   simLambda,
			GridMin:  ant.Add(geom.V3(-0.1, -0.1, 0)),
			GridMax:  ant.Add(geom.V3(0.1, 0.1, 0)),
			GridStep: gridStep,
			Weighted: true,
		})
		if err != nil {
			return nil, nil, err
		}
		dahErrs = append(dahErrs, hres.Position.Dist(ant))
	}
	lionP90, _ := stats.Percentile(lionErrs, 90)
	dahP90, _ := stats.Percentile(dahErrs, 90)
	rows := []Fig9Row{
		{"LION", stats.Mean(lionErrs), lionP90},
		{"Hologram", stats.Mean(dahErrs), dahP90},
	}
	tbl := &Table{
		Title:   "Fig. 9 — 2-D localization with a linear trajectory (lower-dimension case)",
		Columns: []string{"method", "mean err (cm)", "p90 err (cm)"},
		Notes: []string{
			"LION works with a linear trajectory and matches the hologram baseline",
		},
	}
	for _, r := range rows {
		tbl.AddRow(r.Method, cm(r.MeanErr), cm(r.P90Err))
	}
	return rows, tbl, nil
}
