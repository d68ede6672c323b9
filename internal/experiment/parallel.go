package experiment

import (
	"fmt"

	"github.com/rfid-lion/lion/internal/batch"
)

// solveTrials fans one solver job per trial across a bounded worker pool and
// returns the results in trial order. Trial inputs must already be
// materialised (the RNG-consuming generation phase is inherently serial);
// solve must be a pure function of its input so that results[i] is
// bit-identical regardless of worker count. The first failed trial's error
// (lowest index, hence deterministic) aborts the whole run.
func solveTrials[T any](workers, n int, solve func(trial int) (T, error)) ([]T, error) {
	eng := batch.New(batch.Options{Workers: workers})
	indices := make([]int, n)
	for i := range indices {
		indices[i] = i
	}
	results, errs := batch.Map(eng, indices, solve)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiment: trial %d: %w", i, err)
		}
	}
	return results, nil
}
