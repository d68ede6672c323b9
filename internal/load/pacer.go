package load

import "time"

// Pacer is the ideal-clock schedule of an open-loop sender: tick i is due
// at start + i·interval, independent of how long any send actually took.
// It paces `lionsim -pace`. lionload's workers follow the same rule on
// their precomputed schedule slots (buildSchedule) instead: a send is
// measured against its scheduled time, never against "when the loop got
// here", which is what makes the generator coordinated-omission safe.
//
// Pacer is a value type with no internal state mutation; it is safe to
// copy and to use from multiple goroutines (each goroutine paces its own
// tick indices).
type Pacer struct {
	start    time.Time
	interval time.Duration
}

// NewPacer returns a pacer whose tick 0 is due at start, with one tick
// every interval. A non-positive interval collapses every tick to start
// (send as fast as possible, still measured from a fixed origin).
func NewPacer(start time.Time, interval time.Duration) Pacer {
	if interval < 0 {
		interval = 0
	}
	return Pacer{start: start, interval: interval}
}

// PacerForRate returns a pacer emitting units (samples, batches, frames)
// at rate per second, starting at start. A non-positive rate returns an
// unpaced pacer.
func PacerForRate(start time.Time, rate float64) Pacer {
	if rate <= 0 {
		return NewPacer(start, 0)
	}
	return NewPacer(start, time.Duration(float64(time.Second)/rate))
}

// Start returns the schedule origin.
func (p Pacer) Start() time.Time { return p.start }

// Interval returns the tick spacing.
func (p Pacer) Interval() time.Duration { return p.interval }

// ScheduledAt returns the ideal-clock due time of tick i.
func (p Pacer) ScheduledAt(i int) time.Time {
	return p.start.Add(time.Duration(i) * p.interval)
}

// Wait sleeps until tick i is due and returns the lateness at wake-up:
// zero when the schedule was met, positive when the caller fell behind
// (the open-loop backlog that coordinated-omission-safe recording charges
// to every affected tick). Wait never sleeps when already late and
// allocates nothing.
func (p Pacer) Wait(i int) time.Duration {
	due := p.ScheduledAt(i)
	late := time.Since(due)
	if late < 0 {
		time.Sleep(-late)
		return 0
	}
	return late
}
