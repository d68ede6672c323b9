package lion_test

import (
	"math"
	"testing"

	lion "github.com/rfid-lion/lion"
	"github.com/rfid-lion/lion/internal/experiment"
)

// benchCfg keeps every experiment bench at a size that completes within a
// normal -bench run while exercising the identical code paths as the full
// lionbench CLI (which uses the paper-scale configuration).
var benchCfg = experiment.Config{Seed: 1, Fast: true}

// --- One benchmark per paper table/figure (see DESIGN.md §4). ---

func BenchmarkFig2PhaseCenter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.Fig2PhaseCenter(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3PhaseOffsets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.Fig3PhaseOffsets(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Hologram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.Fig4Hologram(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Directions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.Fig6Directions(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9LowerDim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.Fig9LowerDim(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.Fig13Overall(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14a3D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.Fig14a3D(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14b2DDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.Fig14b2DDepth(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15WLSvsLS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.Fig15Weights(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16Range(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.Fig16_17Range(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig18Interval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.Fig18Interval(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig20CaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, err := experiment.Fig19_20MultiAntenna(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig21Turntable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.Fig21Turntable(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches for the design choices DESIGN.md calls out. ---

func BenchmarkAblationSolvers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.AblationSolvers(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationIRWLS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.AblationIRWLS(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSmoothing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.AblationSmoothing(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Solver micro-benchmarks (the Fig. 13b cost story in isolation). ---

// circleObs builds a noiseless circle workload once per benchmark.
func circleObs(n int) ([]lion.PosPhase, float64, lion.Vec3) {
	lambda := lion.DefaultBand().Wavelength()
	ant := lion.V3(1, 0, 0)
	obs := make([]lion.PosPhase, n)
	for i := range obs {
		a := 2 * math.Pi * float64(i) / float64(n)
		p := lion.V3(0.3*math.Cos(a), 0.3*math.Sin(a), 0)
		obs[i] = lion.PosPhase{
			Pos:   p,
			Theta: lion.PhaseOfDistance(ant.Dist(p), lambda),
		}
	}
	return obs, lambda, ant
}

func BenchmarkSolverLION2D(b *testing.B) {
	obs, lambda, _ := circleObs(120)
	pairs := lion.StridePairs(len(obs), 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lion.Locate2D(obs, lambda, pairs, lion.DefaultSolveOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolverLION2DPlainLS(b *testing.B) {
	obs, lambda, _ := circleObs(120)
	pairs := lion.StridePairs(len(obs), 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lion.Locate2D(obs, lambda, pairs, lion.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolverHyperbolaGN(b *testing.B) {
	obs, lambda, _ := circleObs(120)
	pairs := lion.StridePairs(len(obs), 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lion.LocateHyperbola(obs, lambda, pairs, lion.V3(0.5, 0.5, 0),
			lion.HyperbolaOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolverDAH2D(b *testing.B) {
	obs, lambda, ant := circleObs(120)
	cfg := lion.HologramConfig{
		Lambda:   lambda,
		GridMin:  ant.Add(lion.V3(-0.1, -0.1, 0)),
		GridMax:  ant.Add(lion.V3(0.1, 0.1, 0)),
		GridStep: 0.002, // the paper's 20 cm box near 1 mm resolution
		Weighted: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lion.LocateHologram(obs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolverThreeLine3D(b *testing.B) {
	lambda := lion.DefaultBand().Wavelength()
	ant := lion.V3(0, 0.8, 0.1)
	mk := func(y, z float64) []lion.PosPhase {
		n := 240
		out := make([]lion.PosPhase, n)
		for i := range out {
			p := lion.V3(-0.6+1.2*float64(i)/float64(n-1), y, z)
			out[i] = lion.PosPhase{Pos: p, Theta: lion.PhaseOfDistance(ant.Dist(p), lambda)}
		}
		return out
	}
	in := lion.ThreeLineInput{
		L1: mk(0, 0), L2: mk(0, 0.2), L3: mk(-0.2, 0), Lambda: lambda,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lion.LocateThreeLine(in, lion.DefaultStructuredOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPreprocess(b *testing.B) {
	lambda := lion.DefaultBand().Wavelength()
	ant := lion.V3(0, 1, 0)
	n := 2000
	positions := make([]lion.Vec3, n)
	wrapped := make([]float64, n)
	for i := range positions {
		positions[i] = lion.V3(-1+2*float64(i)/float64(n-1), 0, 0)
		wrapped[i] = lion.WrapPhase(lion.PhaseOfDistance(ant.Dist(positions[i]), lambda))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lion.Preprocess(positions, wrapped, 9); err != nil {
			b.Fatal(err)
		}
	}
}
