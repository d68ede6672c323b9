package core

import (
	"errors"
	"math"

	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
)

// ErrNoSamples is returned when calibration receives no measurements.
var ErrNoSamples = errors.New("core: calibration needs at least one sample")

// CenterCalibration records the phase-center calibration of one antenna
// (Sec. IV-C-1): the displacement between the manually measured physical
// center and the estimated phase center.
type CenterCalibration struct {
	AntennaID       string
	PhysicalCenter  geom.Vec3
	EstimatedCenter geom.Vec3
}

// Displacement returns the center displacement vector (estimated − physical).
func (c CenterCalibration) Displacement() geom.Vec3 {
	return c.EstimatedCenter.Sub(c.PhysicalCenter)
}

// DisplacementNorm returns the magnitude of the center displacement.
func (c CenterCalibration) DisplacementNorm() float64 {
	return c.Displacement().Norm()
}

// PhaseOffset estimates Δθ = θ_T + θ_R (Eq. 17): the constant rotation
// between the distance-induced phase θ_d = 4π·d/λ and the measured wrapped
// phase, averaged over the samples. center must be the *calibrated* phase
// center of the antenna. The mean is circular, which makes the estimate
// robust to the 2π wrap that a plain arithmetic mean would trip over. The
// result is in [0, 2π).
//
// Sign convention: the reported phase satisfies
// measured = (θ_d + Δθ) mod 2π, i.e. Δθ = measured − θ_d.
func PhaseOffset(positions []geom.Vec3, wrapped []float64, center geom.Vec3, lambda float64) (float64, error) {
	if lambda <= 0 {
		return 0, ErrBadLambda
	}
	if len(positions) == 0 || len(positions) != len(wrapped) {
		return 0, ErrNoSamples
	}
	var sumSin, sumCos float64
	for i, pos := range positions {
		d := center.Dist(pos)
		diff := wrapped[i] - rf.PhaseOfDistance(d, lambda)
		s, c := math.Sincos(diff)
		sumSin += s
		sumCos += c
	}
	if sumSin == 0 && sumCos == 0 {
		return 0, errors.New("core: phase offset is ambiguous (antipodal samples)")
	}
	return rf.WrapPhase(math.Atan2(sumSin, sumCos)), nil
}

// ApplyPhaseOffset removes a calibrated offset from a wrapped measurement,
// returning the distance-only phase in [0, 2π).
func ApplyPhaseOffset(measured, offset float64) float64 {
	return rf.WrapPhase(measured - offset)
}
