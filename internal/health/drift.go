package health

import (
	"fmt"
	"math"

	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/stats"
)

// Calibration is the recorded phase calibration of one antenna: the
// estimated phase center and the constant offset Δθ = θ_T + θ_R (Eq. 17)
// measured at calibration time. The drift detector re-estimates Δθ
// continuously from streamed samples against this record.
type Calibration struct {
	// Antenna identifies the antenna; it becomes the alert scope and the
	// lion_health_drift_lambda gauge label, so ids must come from
	// configuration, never from request input.
	Antenna string
	// Center is the calibrated phase center.
	Center geom.Vec3
	// Offset is the calibrated phase offset Δθ, radians in [0, 2π).
	Offset float64
	// Lambda is the carrier wavelength, metres.
	Lambda float64
	// Window is the sliding sample window the re-estimate averages over;
	// zero defaults to 256. A window below driftMinSamples (32) could
	// never produce a valid estimate and is rejected.
	Window int
}

// driftMinSamples gates the drift estimate until the window holds this
// many samples.
const driftMinSamples = 32

func (c Calibration) validate() error {
	if c.Antenna == "" {
		return fmt.Errorf("health: calibration needs an antenna id")
	}
	if !(c.Lambda > 0) {
		return fmt.Errorf("health: calibration %q: wavelength %v must be positive", c.Antenna, c.Lambda)
	}
	if !c.Center.IsFinite() || math.IsNaN(c.Offset) || math.IsInf(c.Offset, 0) {
		return fmt.Errorf("health: calibration %q has non-finite fields", c.Antenna)
	}
	if c.Window < 0 || c.window() < driftMinSamples {
		return fmt.Errorf("health: calibration %q: window %d must be 0 (default 256) or at least %d samples",
			c.Antenna, c.Window, driftMinSamples)
	}
	return nil
}

func (c Calibration) window() int {
	if c.Window <= 0 {
		return 256
	}
	return c.Window
}

// DriftStatus is a point-in-time view of one antenna's drift estimate.
type DriftStatus struct {
	Antenna string
	// Center and Calibrated are the drift reference: the recorded phase
	// center and offset (radians).
	Center     geom.Vec3
	Calibrated float64
	// Estimated is the sliding-window re-estimate of the offset, radians in
	// [0, 2π). Zero until driftMinSamples (32) samples have been seen
	// (Valid reports which).
	Estimated float64
	// DriftRad is the signed wrapped difference estimated − calibrated,
	// radians in (−π, π].
	DriftRad float64
	// DriftLambda is |DriftRad|/4π: the equivalent ranging error as a
	// fraction of the wavelength — the quantity the drift rule thresholds.
	DriftLambda float64
	// Samples is the current window fill.
	Samples int
	// Valid reports whether the window has reached driftMinSamples (32).
	Valid bool
}

// driftEstimator re-estimates one antenna's phase offset over a sliding
// window of samples. Each sample (pos, wrapped phase) yields an
// instantaneous offset measurement wrapped − 4π·d/λ; the window keeps their
// unit vectors on the circle with running sums, so the circular mean — the
// same robust estimator core.PhaseOffset uses for calibration proper — is
// O(1) per sample.
type driftEstimator struct {
	cal            Calibration
	win            stats.Ring[unitVec]
	sumSin, sumCos float64
}

// unitVec is one instantaneous offset measurement as a point on the unit
// circle.
type unitVec struct{ sin, cos float64 }

// minMeanResultant is the validity floor on the circular mean's resultant
// length per sample, |Σe^{iθ}|/n. A resultant this small means the window's
// instantaneous offsets are spread (near-)uniformly around the circle —
// antipodal or degenerate input — so the mean direction is numerically
// meaningless. An exact-zero check is useless here: floating-point
// cancellation leaves a ~1e-16 remainder that atan2 happily turns into a
// confident garbage angle.
const minMeanResultant = 1e-9

func newDriftEstimator(cal Calibration) *driftEstimator {
	return &driftEstimator{cal: cal, win: stats.NewRing[unitVec](cal.window())}
}

// add records one streamed sample.
func (d *driftEstimator) add(pos geom.Vec3, phase float64) {
	diff := phase - rf.PhaseOfDistance(d.cal.Center.Dist(pos), d.cal.Lambda)
	s, c := math.Sincos(diff)
	if old, evicted := d.win.Push(unitVec{s, c}); evicted {
		d.sumSin -= old.sin
		d.sumCos -= old.cos
	}
	d.sumSin += s
	d.sumCos += c
	// The running add/subtract pair leaks one rounding error per slide, a
	// random walk that never decays over an unbounded stream. Once per full
	// ring rotation, resummate exactly from the stored window so the
	// accumulated error is bounded by one window's worth of rounding
	// regardless of stream length.
	if d.rotated() {
		d.refresh()
	}
}

// rotated reports whether the ring is full and has just completed a whole
// number of rotations since the estimator started.
func (d *driftEstimator) rotated() bool {
	w := d.win.Cap()
	return d.win.Len() == w && d.win.Total()%uint64(w) == 0
}

// refresh recomputes the running sums exactly from the ring contents,
// oldest first.
func (d *driftEstimator) refresh() {
	var ss, sc float64
	for i := 0; i < d.win.Len(); i++ {
		u := d.win.At(i)
		ss += u.sin
		sc += u.cos
	}
	d.sumSin, d.sumCos = ss, sc
}

// status computes the current drift estimate.
func (d *driftEstimator) status() DriftStatus {
	n := d.win.Len()
	st := DriftStatus{Antenna: d.cal.Antenna, Center: d.cal.Center, Calibrated: d.cal.Offset, Samples: n}
	if n < driftMinSamples ||
		math.Hypot(d.sumSin, d.sumCos) < minMeanResultant*float64(n) {
		return st
	}
	st.Valid = true
	st.Estimated = rf.WrapPhase(math.Atan2(d.sumSin, d.sumCos))
	st.DriftRad = rf.WrapPhaseSigned(st.Estimated - d.cal.Offset)
	st.DriftLambda = math.Abs(st.DriftRad) / (4 * math.Pi)
	return st
}
