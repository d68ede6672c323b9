package stream

import (
	"fmt"

	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
)

// Profile is the antenna calibration profile an engine applies to its
// windows: solvers see offset-corrected phases (measured − Δθ, the
// distance-only phase of Eq. 2) instead of raw reader phases. Profiles are
// the unit of closed-loop recalibration — the recal controller re-solves
// (Center, Offset) from live evidence and hot-swaps the active profile
// under load.
//
// Swap consistency barrier: a profile is pinned per window snapshot, under
// the same lock that freezes the sample window, so every solve sees one
// profile applied uniformly to its whole window. A constant offset shifts
// the unwrapped phase profile by a constant, which the pair-difference
// linear model cancels exactly — so a uniformly-applied swap never moves
// position estimates, while a torn window (half old offset, half new)
// would put a phase step mid-profile and corrupt the unwrap. The barrier
// is what makes hot swapping safe.
type Profile struct {
	// Antenna identifies the antenna the profile calibrates. When the
	// engine was configured with an antenna id, it must match.
	Antenna string
	// Center is the calibrated phase center (carried for audit and for
	// consumers that need the full calibration; the engine's correction
	// itself only uses Offset).
	Center geom.Vec3
	// Offset is the phase offset Δθ = θ_T + θ_R subtracted from every
	// sample phase before solving, radians.
	Offset float64
	// Lambda is the carrier wavelength, metres (the drift reference needs it).
	Lambda float64
}

func (p Profile) validate(engineAntenna string) error {
	if !finite(p.Offset) || !p.Center.IsFinite() || !finite(p.Lambda) {
		return fmt.Errorf("%w: profile has non-finite fields", ErrBadConfig)
	}
	if engineAntenna != "" && p.Antenna != "" && p.Antenna != engineAntenna {
		return fmt.Errorf("%w: profile antenna %q does not match engine antenna %q",
			ErrBadConfig, p.Antenna, engineAntenna)
	}
	return nil
}

// SwapProfile atomically replaces the engine's active profile, the one
// record of the antenna calibration, and returns its new version. The same
// call moves the Monitor's drift reference for the engine's antenna; both
// validate before either changes (engine lock first, the order ingest
// takes them in). In-flight and queued snapshots keep the profile they
// were pinned with; every snapshot taken after SwapProfile returns solves
// entirely under the new profile. Version 1 is the first profile
// (Config.Profile or first swap), so 0 always means "uncorrected raw phases".
func (e *Engine) SwapProfile(p Profile) (uint64, error) {
	if err := p.validate(e.cfg.Antenna); err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, ErrClosed
	}
	if err := e.cfg.Monitor.SwapCalibration(e.cfg.Antenna, p.Center, p.Offset, p.Lambda); err != nil {
		return 0, err
	}
	e.profile = p
	e.profActive = true
	e.profVersion++
	e.profileSwaps.Inc()
	return e.profVersion, nil
}

// ActiveProfile returns the engine's current profile and its version.
// ok is false (and the version 0) while no profile has ever been set.
func (e *Engine) ActiveProfile() (p Profile, version uint64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.profile, e.profVersion, e.profActive
}

// WindowSamples returns a copy of the tag's current window, oldest first,
// with raw (uncorrected) phases exactly as ingested — the evidence the
// recalibration controller re-solves from. Nil when the tag is unknown.
func (e *Engine) WindowSamples(tag string) []Sample {
	e.mu.Lock()
	defer e.mu.Unlock()
	if sess := e.sessions[tag]; sess != nil {
		return sess.win.AppendTo(nil)
	}
	return nil
}

// applyProfile rewrites the snapshot's (solve-private) sample copy with the
// pinned profile's offset correction. Runs in the pool worker, outside the
// engine lock, and allocates nothing.
func (snap *snapshot) applyProfile() {
	if !snap.profActive {
		return
	}
	for i := range snap.samples {
		snap.samples[i].Phase = rf.WrapPhase(snap.samples[i].Phase - snap.profOffset)
	}
}
