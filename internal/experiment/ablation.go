package experiment

import (
	"strconv"
	"time"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/hologram"
	"github.com/rfid-lion/lion/internal/hyperbola"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/stats"
)

// AblationRow is one solver's accuracy/cost on the shared workload.
type AblationRow struct {
	Solver   string
	MeanErr  float64
	MeanTime time.Duration
}

// AblationSolvers compares the three solver families on an identical
// workload (circle trajectory, antenna at 1 m, N(0,0.1) noise): LION's
// linear model, the Gauss–Newton hyperbola baseline, and the DAH grid
// search. This is the design-choice ablation DESIGN.md calls out — the
// radical-line reduction buys orders of magnitude in time at equal or
// better accuracy.
func AblationSolvers(cfg Config) ([]AblationRow, *Table, error) {
	rng := stats.NewRNG(cfg.seed())
	trials := cfg.trials(50, 5)
	gridStep := 0.002
	if cfg.Fast {
		gridStep = 0.01
	}
	ant := geom.V3(0.8, 0.4, 0)

	type acc struct {
		err  float64
		time time.Duration
	}
	sums := map[string]*acc{
		"LION (WLS)": {}, "LION (LS)": {}, "Hyperbola GN": {}, "DAH grid": {},
	}
	add := func(k string, e float64, d time.Duration) {
		sums[k].err += e
		sums[k].time += d
	}

	for trial := 0; trial < trials; trial++ {
		obs := smoothObs(genCircleObs(ant, 0.3, 120, 0.1, rng), smoothWindow)
		pairs := core.StridePairs(len(obs), 30)

		start := time.Now()
		wls, err := core.Locate2D(obs, simLambda, pairs, core.DefaultSolveOptions())
		if err != nil {
			return nil, nil, err
		}
		add("LION (WLS)", wls.Position.Dist(ant), time.Since(start))

		start = time.Now()
		ls, err := core.Locate2D(obs, simLambda, pairs, core.SolveOptions{})
		if err != nil {
			return nil, nil, err
		}
		add("LION (LS)", ls.Position.Dist(ant), time.Since(start))

		start = time.Now()
		hyp, err := hyperbola.Locate(obs, simLambda, pairs, geom.V3(0.5, 0.5, 0),
			hyperbola.Options{})
		if err != nil && hyp == nil {
			return nil, nil, err
		}
		add("Hyperbola GN", hyp.Position.Dist(ant), time.Since(start))

		start = time.Now()
		dah, err := hologram.Locate(obs, hologram.Config{
			Lambda:   simLambda,
			GridMin:  ant.Add(geom.V3(-0.1, -0.1, 0)),
			GridMax:  ant.Add(geom.V3(0.1, 0.1, 0)),
			GridStep: gridStep,
			Weighted: true,
		})
		if err != nil {
			return nil, nil, err
		}
		add("DAH grid", dah.Position.Dist(ant), time.Since(start))
	}

	order := []string{"LION (WLS)", "LION (LS)", "Hyperbola GN", "DAH grid"}
	var rows []AblationRow
	for _, k := range order {
		rows = append(rows, AblationRow{
			Solver:   k,
			MeanErr:  sums[k].err / float64(trials),
			MeanTime: sums[k].time / time.Duration(trials),
		})
	}
	tbl := &Table{
		Title:   "Ablation — solver families on an identical workload (circle r=0.3 m, N(0,0.1))",
		Columns: []string{"solver", "mean err (cm)", "time (s)"},
		Notes: []string{
			"the radical-line reduction turns a quadratic problem into a linear one",
		},
	}
	for _, r := range rows {
		tbl.AddRow(r.Solver, cm(r.MeanErr), secs(r.MeanTime.Seconds()))
	}
	return rows, tbl, nil
}

// AblationIRWLSRow is one iteration budget's accuracy.
type AblationIRWLSRow struct {
	MaxIterations int
	MeanErr       float64
}

// AblationIRWLS sweeps the IRWLS iteration budget under burst corruption to
// show where the re-weighting converges.
func AblationIRWLS(cfg Config) ([]AblationIRWLSRow, *Table, error) {
	rng := stats.NewRNG(cfg.seed())
	trials := cfg.trials(40, 6)
	ant := geom.V3(1, 0, 0)

	budgets := []int{1, 2, 3, 5, 10, 20}
	sums := make([]float64, len(budgets))
	for trial := 0; trial < trials; trial++ {
		obs := genCircleObs(ant, 0.3, 120, 0.05, rng)
		start := 5 + rng.Intn(10)
		for i := start; i < start+12; i++ {
			obs[i].Theta += 2.0
		}
		obs = smoothObs(obs, smoothWindow)
		pairs := core.StridePairs(len(obs), 30)
		for bi, b := range budgets {
			sol, err := core.Locate2D(obs, simLambda, pairs, core.SolveOptions{
				Weighted:      true,
				MaxIterations: b,
			})
			if err != nil {
				return nil, nil, err
			}
			sums[bi] += sol.Position.Dist(ant)
		}
	}
	var rows []AblationIRWLSRow
	for bi, b := range budgets {
		rows = append(rows, AblationIRWLSRow{
			MaxIterations: b,
			MeanErr:       sums[bi] / float64(trials),
		})
	}
	tbl := &Table{
		Title:   "Ablation — IRWLS iteration budget under burst corruption",
		Columns: []string{"max iterations", "mean err (cm)"},
	}
	for _, r := range rows {
		tbl.AddRow(strconv.Itoa(r.MaxIterations), cm(r.MeanErr))
	}
	return rows, tbl, nil
}

// AblationSmoothingRow is one smoothing window's accuracy.
type AblationSmoothingRow struct {
	Window  int
	MeanErr float64
}

// AblationSmoothing sweeps the moving-average window of the preprocessing
// stage on a noisy linear scan: no smoothing wastes SNR, oversmoothing
// distorts the profile near the boundaries.
func AblationSmoothing(cfg Config) ([]AblationSmoothingRow, *Table, error) {
	rng := stats.NewRNG(cfg.seed())
	trials := cfg.trials(40, 6)
	ant := geom.V3(0.2, 1, 0)
	windows := []int{0, 3, 9, 15, 31, 61}

	sums := make([]float64, len(windows))
	for trial := 0; trial < trials; trial++ {
		n := 200
		positions := make([]geom.Vec3, n)
		wrapped := make([]float64, n)
		for i := range positions {
			positions[i] = geom.V3(-0.5+float64(i)/float64(n-1), 0, 0)
			theta := 4 * 3.141592653589793 * ant.Dist(positions[i]) / simLambda
			wrapped[i] = rf.WrapPhase(theta + rng.Normal(0, 0.15))
		}
		for wi, w := range windows {
			obs, err := core.Preprocess(positions, wrapped, w)
			if err != nil {
				return nil, nil, err
			}
			sol, err := core.Locate2DLine(obs, simLambda, 0.2, true,
				core.DefaultSolveOptions())
			if err != nil {
				return nil, nil, err
			}
			sums[wi] += sol.Position.Dist(ant)
		}
	}
	var rows []AblationSmoothingRow
	for wi, w := range windows {
		rows = append(rows, AblationSmoothingRow{
			Window:  w,
			MeanErr: sums[wi] / float64(trials),
		})
	}
	tbl := &Table{
		Title:   "Ablation — moving-average smoothing window (noisy linear scan)",
		Columns: []string{"window", "mean err (cm)"},
	}
	for _, r := range rows {
		tbl.AddRow(strconv.Itoa(r.Window), cm(r.MeanErr))
	}
	return rows, tbl, nil
}
