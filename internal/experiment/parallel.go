package experiment

import (
	"fmt"

	"github.com/rfid-lion/lion/internal/batch"
)

// solveTrials fans one solver job per trial out through batch.Run and
// returns the results in trial order. Trial inputs must already be
// materialised (the RNG-consuming generation phase is inherently serial);
// solve must be a pure function of its input so that results[i] is
// bit-identical at any GOMAXPROCS. The first failed trial's error (lowest
// index, hence deterministic) aborts the whole run.
func solveTrials[T any](n int, solve func(trial int) (T, error)) ([]T, error) {
	jobs := make([]batch.Job, n)
	for i := range jobs {
		jobs[i] = func() (any, error) { return solve(i) }
	}
	results := make([]T, n)
	for i, o := range batch.Run(jobs) {
		if o.Err != nil {
			return nil, fmt.Errorf("experiment: trial %d: %w", i, o.Err)
		}
		results[i], _ = o.Value.(T)
	}
	return results, nil
}
