package health

import "time"

// Signal names one monitored quantity. Every rule compares its signal's
// current value with a static threshold. The condition estimate is per tag,
// read from each window solve; the error and drop rates are global; drift is
// per antenna.
type Signal string

const (
	// SignalCondition is Solution.ConditionEstimate: the solver's lower
	// bound on the unweighted system's condition number, per tag.
	SignalCondition Signal = "condition_estimate"
	// SignalErrorRate is the EWMA fraction of window solves returning an
	// error, across all tags.
	SignalErrorRate Signal = "solve_error_rate"
	// SignalDropRate is the EWMA fraction of stream samples lost (evicted
	// from their window before any solve saw them) among all ingest events
	// since the previous evaluation tick.
	SignalDropRate Signal = "drop_rate"
	// SignalDrift is the calibration drift: |re-estimated − calibrated phase
	// offset| expressed as a fraction of the wavelength (Δφ/4π, the
	// equivalent ranging error over λ). Evaluated per calibrated antenna.
	SignalDrift Signal = "drift_lambda"
)

// knownSignal reports whether s is one of the Signal constants.
func knownSignal(s Signal) bool {
	switch s {
	case SignalCondition, SignalErrorRate, SignalDropRate, SignalDrift:
		return true
	}
	return false
}

// SolveObservation carries one window solve into the monitor. Time is the
// stream timestamp of the window's last sample — the monitor's logical
// clock, which keeps alert timing deterministic under accelerated replay.
type SolveObservation struct {
	Tag     string
	Antenna string
	Time    time.Duration

	// Condition is the solution's condition estimate.
	Condition float64

	// Failed marks a solve that returned an error; Condition is not
	// meaningful and only the error-rate signal is updated.
	Failed bool
}
