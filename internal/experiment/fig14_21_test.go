package experiment

import (
	"math"
	"testing"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/stats"
)

func TestFig14a3D(t *testing.T) {
	rows, _, err := Fig14a3D(fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Near positions (depth 0.6/0.8) must stay reasonably accurate.
	for _, r := range rows {
		if r.Antenna.Y <= 0.8 && r.DistErr > 0.05 {
			t.Errorf("%s: dist err %v m", r.Label, r.DistErr)
		}
	}
	// Errors grow with depth (compare the z=0 rows at 0.6 and 1.0 m).
	var near, far Fig14aRow
	for _, r := range rows {
		if r.Antenna.Z != 0 {
			continue
		}
		switch r.Antenna.Y {
		case 0.6:
			near = r
		case 1.0:
			far = r
		}
	}
	if far.DistErr < near.DistErr {
		t.Errorf("error did not grow with depth: near %v, far %v", near.DistErr, far.DistErr)
	}
}

func TestFig14b2DDepth(t *testing.T) {
	rows, _, err := Fig14b2DDepth(fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[r.Method+f3(r.Depth)] = r.MeanErr
	}
	// LION must stay flat and usable across the sweep (the paper's claim).
	for _, r := range rows {
		if r.Method == "LION" && r.MeanErr > 0.04 {
			t.Errorf("LION at depth %v: err %v m", r.Depth, r.MeanErr)
		}
	}
	// DAH must degrade with depth: clearly worse at the far end than at the
	// near end.
	if byKey["DAH"+f3(1.6)] < 1.5*byKey["DAH"+f3(0.6)] {
		t.Errorf("DAH did not degrade with depth: near %v, far %v",
			byKey["DAH"+f3(0.6)], byKey["DAH"+f3(1.6)])
	}
}

func TestFig15Weights(t *testing.T) {
	rows, _, err := Fig15Weights(fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	wls, ls := rows[0], rows[1]
	if wls.Method != "WLS" || ls.Method != "LS" {
		t.Fatalf("row order: %v, %v", wls.Method, ls.Method)
	}
	if wls.MeanErr > ls.MeanErr*1.15 {
		t.Errorf("WLS (%v) clearly worse than LS (%v)", wls.MeanErr, ls.MeanErr)
	}
	if len(wls.Errors) != len(ls.Errors) {
		t.Error("per-trial error lists unequal")
	}
}

func TestFig16_17Range(t *testing.T) {
	rows, _, err := Fig16_17Range(fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The residual-selected range must be among the better-performing ones:
	// its error within 2x of the global minimum.
	bestRes, bestErr := rows[0], rows[0]
	minErr := math.Inf(1)
	for _, r := range rows {
		if r.MeanAbsRes < bestRes.MeanAbsRes {
			bestRes = r
		}
		if r.MeanDistErr < bestErr.MeanDistErr {
			bestErr = r
		}
		if r.MeanDistErr < minErr {
			minErr = r.MeanDistErr
		}
	}
	if bestRes.MeanDistErr > 2*minErr+0.002 {
		t.Errorf("residual picked range %v (err %v) vs best err %v",
			bestRes.Range, bestRes.MeanDistErr, minErr)
	}
}

func TestFig18Interval(t *testing.T) {
	rows, _, err := Fig18Interval(fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Large intervals (>= 0.2) must beat the smallest interval on average.
	small := rows[0]
	var largeSum float64
	var largeN int
	for _, r := range rows {
		if r.Interval >= 0.2 {
			largeSum += r.MeanDistErr
			largeN++
		}
	}
	if largeSum/float64(largeN) > small.MeanDistErr {
		t.Errorf("large intervals (%v) no better than 0.1 m (%v)",
			largeSum/float64(largeN), small.MeanDistErr)
	}
}

func TestFig19_20MultiAntenna(t *testing.T) {
	reports, rows, _, err := Fig19_20MultiAntenna(fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, rep := range reports {
		// The estimated displacement must resemble the injected one.
		if rep.EstDisplacement.Sub(rep.TrueDisplacement).Norm() > 0.03 {
			t.Errorf("%s displacement: est %v vs true %v",
				rep.ID, rep.EstDisplacement, rep.TrueDisplacement)
		}
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	none, center, full := rows[0].TagErr, rows[1].TagErr, rows[2].TagErr
	// Full calibration must beat no calibration; center-only sits between
	// (allow slack for the coarse fast grid).
	if full > none {
		t.Errorf("full calibration (%v) worse than none (%v)", full, none)
	}
	if center > none+0.01 {
		t.Errorf("center-only (%v) clearly worse than none (%v)", center, none)
	}
}

func TestFig21Turntable(t *testing.T) {
	rows, _, err := Fig21Turntable(fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Error shrinks with radius: the largest radius must beat the smallest.
	if rows[3].DistErr > rows[0].DistErr {
		t.Errorf("error did not shrink with radius: r=0.10 %v vs r=0.25 %v",
			rows[0].DistErr, rows[3].DistErr)
	}
	// x error below y error at the largest radius (errors lie along the
	// center→antenna direction, which is y here).
	if rows[3].XErr > rows[3].YErr {
		t.Errorf("x err %v above y err %v at r=0.25", rows[3].XErr, rows[3].YErr)
	}
}

// TestFadeAccuracyStepRule checks that the IRLS stopping rule keeps what
// the weights are for, rejecting bursty phase errors, on the Fig. 15 fade
// deployment: 300 scans, each solved at the default 0.1 mm step and at the
// 1 µm step. The default's mean and p90 error stay within 2 % of the 1 µm
// rule's.
func TestFadeAccuracyStepRule(t *testing.T) {
	d, err := newFig15Deployment(7)
	if err != nil {
		t.Fatal(err)
	}
	rules := []struct {
		name string
		opts core.SolveOptions
	}{
		{"0.1 mm (default)", core.DefaultSolveOptions()},
		{"1 µm", core.SolveOptions{Weighted: true, Tolerance: 1e-6}},
	}
	errs := make([][]float64, len(rules))
	iters := make([]int, len(rules))
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		rel, trueT, err := d.scanRelative(0.55)
		if err != nil {
			t.Fatal(err)
		}
		for r, rule := range rules {
			sol, err := core.Locate2DLine(rel, d.tb.lambda, 0.2, true, rule.opts)
			if err != nil {
				t.Fatal(err)
			}
			errs[r] = append(errs[r], sol.Position.XY().Dist(trueT.XY()))
			iters[r] += sol.Iterations
		}
	}
	mean := make([]float64, len(rules))
	p90 := make([]float64, len(rules))
	for r, rule := range rules {
		mean[r] = stats.Mean(errs[r])
		p90[r], _ = stats.Percentile(errs[r], 90)
		t.Logf("%-16s iterations %.2f, mean %.3f cm, p90 %.3f cm",
			rule.name, float64(iters[r])/trials, mean[r]*100, p90[r]*100)
	}
	if math.Abs(mean[0]-mean[1]) > 0.02*mean[1] {
		t.Errorf("mean error %.4f cm vs %.4f cm under the 1 µm rule: more than 2 %% apart", mean[0]*100, mean[1]*100)
	}
	if math.Abs(p90[0]-p90[1]) > 0.02*p90[1] {
		t.Errorf("p90 error %.4f cm vs %.4f cm under the 1 µm rule: more than 2 %% apart", p90[0]*100, p90[1]*100)
	}
}
