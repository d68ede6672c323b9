package lion

import (
	"github.com/rfid-lion/lion/internal/calib"
)

// Offline calibration-solver re-exports: the shared core behind cmd/lioncal
// and liond's closed-loop recalibration.
type (
	// CalibConfig parameterises one line-scan calibration solve.
	CalibConfig = calib.Config
	// CalibResult is the estimated phase center, Eq. 17 offset, and fit.
	CalibResult = calib.Result
)

// EstimateCalibrationLine solves one line-scan calibration: phase center via
// the linear localization model, then the combined tag+antenna offset via the
// paper's Eq. 17 circular mean over the residual phases.
func EstimateCalibrationLine(positions []Vec3, wrapped []float64, cfg CalibConfig) (CalibResult, error) {
	return calib.EstimateLine(positions, wrapped, cfg)
}

// CalibrationResidualRMS scores a (center, offset) pair against a scan as the
// RMS wrapped-phase residual in radians — the acceptance metric liond's
// recalibration applies to held-out samples.
func CalibrationResidualRMS(positions []Vec3, wrapped []float64, center Vec3, offset, lambda float64) float64 {
	return calib.OffsetResidualRMS(positions, wrapped, center, offset, lambda)
}
