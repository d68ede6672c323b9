// Package rf models the radio-frequency physics that an RFID reader
// observes: the backscatter phase equation of the LION paper (Eq. 1), phase
// wrapping, free-space and multipath propagation via the image method, and
// directional antenna beam patterns.
//
// The phase reported by a commercial reader for a tag at distance d is
//
//	θ = (2π/λ · 2d + θ_T + θ_R) mod 2π
//
// where θ_T and θ_R are constant offsets contributed by the tag's
// reflection characteristics and the reader's transmitter/receiver
// circuits. This package computes the distance-dependent part and the
// channel distortions; device offsets live in package sim.
package rf

import (
	"errors"
	"math"
	"math/cmplx"

	"github.com/rfid-lion/lion/internal/geom"
)

// SpeedOfLight is the propagation speed used throughout, in m/s.
const SpeedOfLight = 299792458.0

// DefaultFrequencyHz is the carrier used by the paper's testbed
// (Impinj Speedway R420 at 920.625 MHz).
const DefaultFrequencyHz = 920.625e6

// ErrBadFrequency is returned for non-positive carrier frequencies.
var ErrBadFrequency = errors.New("rf: carrier frequency must be positive")

// Band describes the carrier the reader transmits on.
type Band struct {
	FrequencyHz float64
}

// DefaultBand returns the paper's 920.625 MHz carrier.
func DefaultBand() Band { return Band{FrequencyHz: DefaultFrequencyHz} }

// Wavelength returns the carrier wavelength λ in metres.
func (b Band) Wavelength() float64 { return SpeedOfLight / b.FrequencyHz }

// Validate checks the band parameters.
func (b Band) Validate() error {
	if b.FrequencyHz <= 0 {
		return ErrBadFrequency
	}
	return nil
}

// WrapPhase maps an angle onto [0, 2π). math.Mod returns an angle on
// (−2π, 2π) unchanged, bit for bit, so only angles outside it pay for the
// call: a reader's phase, already wrapped, takes two compares.
func WrapPhase(theta float64) float64 {
	const turn = 2 * math.Pi
	t := theta
	if !(t > -turn && t < turn) {
		t = math.Mod(t, turn)
	}
	if t < 0 {
		t += turn
		// Negative angles within one ulp of zero round up to exactly 2π,
		// which would escape the half-open interval.
		if t >= turn {
			t = 0
		}
	}
	return t
}

// WrapPhaseSigned maps an angle onto (−π, π].
func WrapPhaseSigned(theta float64) float64 {
	t := WrapPhase(theta)
	if t > math.Pi {
		t -= 2 * math.Pi
	}
	return t
}

// PhaseOfDistance returns the unwrapped round-trip phase 4π·d/λ accumulated
// over the two-way backscatter path of length 2d.
func PhaseOfDistance(d, lambda float64) float64 {
	return 4 * math.Pi * d / lambda
}

// DistanceOfPhaseDelta converts an (unwrapped) phase difference to the
// corresponding one-way distance difference, Δd = λ/4π·Δθ (paper Eq. 6).
func DistanceOfPhaseDelta(dTheta, lambda float64) float64 {
	return lambda / (4 * math.Pi) * dTheta
}

// Reflector is a planar multipath reflector with an amplitude reflection
// coefficient in [0, 1]. Reflections are modelled with the image method: the
// reflected path from a to b has the length |a − mirror(b)|.
type Reflector struct {
	Plane geom.Plane3
	Coeff float64
}

// Image returns p mirrored across the reflector plane.
func (r Reflector) Image(p geom.Vec3) geom.Vec3 {
	n := r.Plane.Normal()
	nn := n.NormSq()
	if nn == 0 {
		return p
	}
	t := r.Plane.Eval(p) / nn
	return p.Sub(n.Scale(2 * t))
}

// Propagation describes the channel between a reader antenna and a tag:
// carrier wavelength plus any multipath reflectors in the environment.
type Propagation struct {
	Lambda     float64
	Reflectors []Reflector
}

// NewPropagation builds a free-space channel for the band.
func NewPropagation(b Band) (*Propagation, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &Propagation{Lambda: b.Wavelength()}, nil
}

// OneWay returns the complex one-way channel gain g between two points,
//
//	g = Σ_k a_k · exp(−j·2π·d_k/λ)
//
// summing the direct path (amplitude 1/d) and one image-method bounce per
// reflector (amplitude Γ_k/d_k).
func (p *Propagation) OneWay(a, b geom.Vec3) complex128 {
	g := pathTerm(a.Dist(b), 1, p.Lambda)
	for _, r := range p.Reflectors {
		if r.Coeff == 0 {
			continue
		}
		d := a.Dist(r.Image(b))
		g += pathTerm(d, r.Coeff, p.Lambda)
	}
	return g
}

func pathTerm(d, amp, lambda float64) complex128 {
	if d <= 0 {
		d = 1e-6
	}
	phase := -2 * math.Pi * d / lambda
	return cmplx.Rect(amp/d, phase)
}

// Response returns the two-way backscatter response h = g² for the channel
// between antenna and tag. With no reflectors, arg(h) = −4π·d/λ, matching
// PhaseOfDistance up to sign.
func (p *Propagation) Response(antenna, tag geom.Vec3) complex128 {
	g := p.OneWay(antenna, tag)
	return g * g
}

// ChannelPhase returns the wrapped distance-dependent phase the reader
// observes for the channel, θ_d = −arg(h) mod 2π. Device offsets are added
// by the caller.
func (p *Propagation) ChannelPhase(antenna, tag geom.Vec3) float64 {
	return WrapPhase(-cmplx.Phase(p.Response(antenna, tag)))
}

// ChannelMagnitude returns |h|, used to derive RSSI and SNR-dependent phase
// noise.
func (p *Propagation) ChannelMagnitude(antenna, tag geom.Vec3) float64 {
	return cmplx.Abs(p.Response(antenna, tag))
}

// RSSI converts a channel magnitude to a dBm-like received power figure.
// txPowerDBm is the transmit power (the paper uses 32 dBm).
func RSSI(magnitude, txPowerDBm float64) float64 {
	if magnitude <= 0 {
		return math.Inf(-1)
	}
	return txPowerDBm + 20*math.Log10(magnitude)
}
