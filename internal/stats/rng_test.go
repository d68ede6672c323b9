package stats

import (
	"sync"
	"testing"
)

// workerRNG is the generator one worker of a pool seeds from SplitSeed, one
// per goroutine as RNG requires.
func workerRNG(seed int64, worker int) *RNG { return NewRNG(SplitSeed(seed, worker)) }

func drawSequence(g *RNG, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.Float64()
	}
	return out
}

func TestSplitSeedDeterministic(t *testing.T) {
	for worker := 0; worker < 8; worker++ {
		if SplitSeed(42, worker) != SplitSeed(42, worker) {
			t.Fatalf("SplitSeed(42, %d) not deterministic", worker)
		}
	}
}

func TestSplitSeedDistinct(t *testing.T) {
	seen := map[int64]int{}
	for seed := int64(0); seed < 16; seed++ {
		for worker := 0; worker < 64; worker++ {
			s := SplitSeed(seed, worker)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: SplitSeed(%d,%d) == earlier entry %d", seed, worker, prev)
			}
			seen[s] = worker
		}
	}
}

// TestWorkerRNGsNeverShareASequence draws long sequences from every worker
// of a pool and asserts no two workers produce the same stream — including
// shifted overlaps, which is how naive seed+worker arithmetic fails (worker
// k's stream re-emerging inside worker k+1's).
func TestWorkerRNGsNeverShareASequence(t *testing.T) {
	const workers = 8
	const n = 1000
	seqs := make([][]float64, workers)
	for w := range seqs {
		seqs[w] = drawSequence(workerRNG(7, w), n)
	}
	// Index every value of every stream; identical float64 draws across
	// streams are already vanishingly unlikely, so any repeated window
	// would show up as repeated values.
	for a := 0; a < workers; a++ {
		for b := a + 1; b < workers; b++ {
			shared := 0
			inB := make(map[float64]bool, n)
			for _, v := range seqs[b] {
				inB[v] = true
			}
			for _, v := range seqs[a] {
				if inB[v] {
					shared++
				}
			}
			if shared > 0 {
				t.Errorf("workers %d and %d share %d of %d draws", a, b, shared, n)
			}
		}
	}
}

func TestWorkerRNGReproducible(t *testing.T) {
	a := drawSequence(workerRNG(3, 2), 100)
	b := drawSequence(workerRNG(3, 2), 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identical worker RNGs", i)
		}
	}
}

// TestWorkerRNGConcurrentUse exercises the documented contract — one RNG
// per goroutine — under -race: concurrent workers using their own split
// generators must not trip the race detector.
func TestWorkerRNGConcurrentUse(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	sums := make([]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := workerRNG(11, w)
			for i := 0; i < 10000; i++ {
				sums[w] += g.Float64()
			}
		}(w)
	}
	wg.Wait()
	for w, s := range sums {
		// Each sum is ~5000; anything near 0 means a worker drew nothing.
		if s < 1000 {
			t.Errorf("worker %d sum %v implausibly low", w, s)
		}
	}
}
