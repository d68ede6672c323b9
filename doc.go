// Package lion is the public API of LION, a linear RFID localization and
// antenna phase-calibration library reproducing "Pinpoint Achilles' Heel in
// RFID Localization: Phase Calibration of RFID Antenna based on Linear
// Localization Model" (ICDCS 2022).
//
// # What LION does
//
// Phase-based RFID localization finds a target (an antenna, or dually a
// tag) from the phases a reader reports while a tag moves along a known
// trajectory. Classical methods intersect circles or hyperbolas —
// non-linear and expensive — or grid-search a hologram. LION observes that
// the intersection of the circles is also the intersection of their
// pairwise *radical lines* (radical planes in 3-D), turning localization
// into a small linear least-squares problem:
//
//	α·x + β·y [+ γ·z] + ω·d_r = κ          (one equation per pair)
//
// solved in microseconds with iteratively re-weighted least squares to
// resist ambient noise and multipath. On top of the localizer, the library
// calibrates an antenna's true *phase center* (which is displaced 2–3 cm
// from its physical center on real hardware) and its constant *phase
// offset*.
//
// # Quick start
//
//	obs, _ := lion.Preprocess(positions, wrappedPhases, 9)
//	sol, _ := lion.Locate2DLine(obs, lion.DefaultBand().Wavelength(),
//	    0.2, true, lion.DefaultSolveOptions())
//	fmt.Println(sol.Position)
//
// The library ships a full software testbed (sub-package sim via this
// facade) so every pipeline can be exercised without hardware; see
// examples/ for runnable programs and internal/experiment for the
// reproduction of every figure in the paper.
//
// # Throughput
//
// The adaptive parameter sweeps (AdaptiveLocateThreeLine and friends) fan
// their range×interval grid across a bounded worker pool with deterministic
// result ordering, so a parallel sweep is byte-identical to a serial one.
package lion
