package lion_test

import (
	"math"
	"testing"

	lion "github.com/rfid-lion/lion"
)

// The offline calibration solver is reachable through the facade: it
// recovers the Eq. 17 offset of a clean line scan, and the residual score
// accepts the recovered (center, offset) pair.
func TestCalibFacadeRecoversOffset(t *testing.T) {
	antenna := lion.V3(0.05, 0.8, 0)
	lambda := lion.DefaultBand().Wavelength()
	trueOffset := lion.WrapPhase(1.2 + 0.6)

	positions := make([]lion.Vec3, 96)
	wrapped := make([]float64, 96)
	for i := range positions {
		positions[i] = lion.V3(-1.0+0.005*float64(i), 0, 0)
		wrapped[i] = lion.WrapPhase(lion.PhaseOfDistance(antenna.Dist(positions[i]), lambda) + trueOffset)
	}
	res, err := lion.EstimateCalibrationLine(positions, wrapped, lion.CalibConfig{
		Lambda: lambda, Adaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(lion.WrapPhaseSigned(res.Offset - trueOffset)); d > 0.05 {
		t.Errorf("EstimateCalibrationLine offset %v, want ≈%v", res.Offset, trueOffset)
	}
	if rms := lion.CalibrationResidualRMS(positions, wrapped, res.Center, res.Offset, lambda); !(rms < 0.05) {
		t.Errorf("CalibrationResidualRMS = %v, want < 0.05", rms)
	}
}
