package health

import (
	"fmt"
	"regexp"
	"time"
)

// Severity ranks an alert's urgency.
type Severity int

const (
	// SevWarning flags degradation worth investigating.
	SevWarning Severity = iota
	// SevCritical flags conditions that invalidate estimates; a firing
	// critical rule turns liond's readiness probe unhealthy.
	SevCritical
)

// String names the severity for wire output.
func (s Severity) String() string {
	if s == SevCritical {
		return "critical"
	}
	return "warning"
}

// ruleNameRE bounds rule names: they become metric label values.
var ruleNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// Rule is one declarative health check, evaluated on every window solve for
// the scopes its signal applies to.
type Rule struct {
	// Name identifies the rule in alerts, logs, and the
	// lion_health_alerts_firing{rule=...} gauge. Lowercase [a-z0-9_].
	Name string
	// Signal selects the monitored quantity.
	Signal Signal
	// Threshold is the violation limit: the rule is violated while the
	// signal value exceeds it.
	Threshold float64
	// HoldDown is how long a violation must persist before the pending
	// alert fires (debounce). Zero fires on the first confirmed violation
	// after the pending evaluation, i.e. the second consecutive violating
	// tick.
	HoldDown time.Duration
	// ResolveAfter is how long the signal must stay healthy before a firing
	// alert resolves (hysteresis). Zero means resolve takes HoldDown.
	ResolveAfter time.Duration
	// Severity ranks the alert.
	Severity Severity
}

func (r Rule) validate() error {
	if !ruleNameRE.MatchString(r.Name) {
		return fmt.Errorf("health: rule name %q must match %s", r.Name, ruleNameRE)
	}
	if !knownSignal(r.Signal) {
		return fmt.Errorf("health: rule %q has unknown signal %q", r.Name, r.Signal)
	}
	if r.Threshold <= 0 {
		return fmt.Errorf("health: rule %q threshold %v must be positive", r.Name, r.Threshold)
	}
	if r.HoldDown < 0 || r.ResolveAfter < 0 {
		return fmt.Errorf("health: rule %q has negative duration", r.Name)
	}
	return nil
}

func (r Rule) resolveAfter() time.Duration {
	if r.ResolveAfter > 0 {
		return r.ResolveAfter
	}
	return r.HoldDown
}

// DefaultRules is the stock rule set liond runs with: static thresholds on
// conditioning, solve failures and stream drops, and the calibration-drift
// rule (inert until an antenna calibration is configured). Thresholds follow
// the repo's simulated-testbed scales; production deployments tune them per
// site.
func DefaultRules() []Rule {
	return []Rule{
		{Name: "ill_conditioned", Signal: SignalCondition,
			Threshold: 1e8, HoldDown: 2 * time.Second, Severity: SevCritical},
		{Name: "solve_errors", Signal: SignalErrorRate,
			Threshold: 0.5, HoldDown: 2 * time.Second, Severity: SevCritical},
		{Name: "stream_drops", Signal: SignalDropRate,
			Threshold: 0.25, HoldDown: 5 * time.Second, Severity: SevWarning},
		{Name: "calibration_drift", Signal: SignalDrift,
			Threshold: 0.02, HoldDown: 2 * time.Second, Severity: SevCritical},
	}
}
