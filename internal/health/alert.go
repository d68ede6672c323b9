package health

import "time"

// State is an alert's lifecycle stage.
type State int

const (
	// StatePending marks a violation inside its hold-down: observed, not
	// yet confirmed. Pending alerts that heal are discarded (debounce).
	StatePending State = iota
	// StateFiring marks a confirmed violation.
	StateFiring
	// StateResolved marks a formerly firing alert whose signal stayed
	// healthy for the rule's resolve hysteresis.
	StateResolved
)

// String names the state for wire output.
func (s State) String() string {
	switch s {
	case StateFiring:
		return "firing"
	case StateResolved:
		return "resolved"
	default:
		return "pending"
	}
}

// Alert is one rule violation moving through pending → firing → resolved.
// Timestamps are stream time (the monitor's logical clock): the Time fields
// of the observations that drove each transition.
type Alert struct {
	// Rule, Signal and Severity copy the violated rule's identity.
	Rule     string
	Signal   Signal
	Severity Severity
	// Scope is "tag:<id>" for per-tag signals, "antenna:<id>" for drift,
	// "stream" for global rates.
	Scope string
	// State is the lifecycle stage.
	State State
	// Value is the most recent violating signal value.
	Value float64
	// RawValue is the drift in radians for calibration_drift (Value is in
	// wavelengths); for every other rule it equals Value.
	RawValue float64
	// Threshold copies the rule's limit.
	Threshold float64
	// StartedAt is when the violation was first observed; FiredAt and
	// ResolvedAt are zero until those transitions happen. UpdatedAt tracks
	// the last evaluation that touched the alert.
	StartedAt  time.Duration
	FiredAt    time.Duration
	ResolvedAt time.Duration
	UpdatedAt  time.Duration
	// Tag is the tag whose solve confirmed the violation when the alert
	// fired; empty until then.
	Tag string
}

// alertState wraps an active alert with its hysteresis bookkeeping.
type alertState struct {
	Alert
	healthySince time.Duration
	healthy      bool
}

// alertKey identifies one alert state machine: a rule and the subject it
// watches — a tag id for ill_conditioned, an antenna id for drift, "" for
// the stream-wide rates. A rule watches one kind of subject, so the pair
// maps onto exactly one scope.
type alertKey struct {
	rule    string
	subject string
}

// scopeOf names the alert scope of a subject for the signal: "tag:<id>",
// "antenna:<id>" or "stream".
func scopeOf(sig Signal, subject string) string {
	switch sig {
	case SignalCondition:
		return "tag:" + subject
	case SignalDrift:
		return "antenna:" + subject
	}
	return "stream"
}
