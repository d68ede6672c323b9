package lion_test

import (
	"errors"
	"math"
	"testing"

	lion "github.com/rfid-lion/lion"
)

// The facade must surface the typed validation errors so callers can match
// them with errors.Is without importing internal packages.
func TestFacadeRejectsNonFiniteInput(t *testing.T) {
	pos := make([]lion.Vec3, 8)
	phases := make([]float64, 8)
	for i := range pos {
		pos[i] = lion.V3(float64(i)*0.02, 0, 0)
		phases[i] = float64(i) * 0.1
	}

	bad := append([]float64(nil), phases...)
	bad[2] = math.NaN()
	if _, err := lion.Preprocess(pos, bad, 0); !errors.Is(err, lion.ErrNonFiniteInput) {
		t.Errorf("NaN phase: err = %v, want lion.ErrNonFiniteInput", err)
	}

	badPos := append([]lion.Vec3(nil), pos...)
	badPos[5] = lion.V3(0, math.Inf(1), 0)
	if _, err := lion.Preprocess(badPos, phases, 0); !errors.Is(err, lion.ErrNonFiniteInput) {
		t.Errorf("Inf position: err = %v, want lion.ErrNonFiniteInput", err)
	}
	badPos[5] = lion.V3(math.NaN(), 0, 0)
	if _, err := lion.Preprocess(badPos, phases, 0); !errors.Is(err, lion.ErrNonFiniteInput) {
		t.Errorf("NaN position: err = %v, want lion.ErrNonFiniteInput", err)
	}

	if _, err := lion.Preprocess(pos, phases[:7], 0); !errors.Is(err, lion.ErrTooFewObservations) {
		t.Errorf("mismatched lengths: err = %v, want lion.ErrTooFewObservations", err)
	}

	obs, err := lion.Preprocess(pos, phases, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lion.Locate2D(obs, math.NaN(), lion.StridePairs(len(obs), 2), lion.DefaultSolveOptions()); !errors.Is(err, lion.ErrBadLambda) {
		t.Errorf("NaN lambda: err = %v, want lion.ErrBadLambda", err)
	}
}
