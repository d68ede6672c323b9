package recal

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/health"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/stream"
)

// recalTrace synthesizes clean Eq. 2 samples of a tag marching monotonically
// along x (5 mm steps, 10 ms apart) past an antenna at center, phases
// shifted by a constant offset plus an optional per-sample perturbation.
// start indexes into the global trajectory so consecutive phases stay
// monotonic — windows never straddle a direction flip.
func recalTrace(center geom.Vec3, lambda, offset float64, start, n int, noise func(i int) float64) []stream.Sample {
	out := make([]stream.Sample, n)
	for i := range out {
		k := start + i
		pos := geom.V3(-1.0+0.005*float64(k), 0, 0)
		ph := rf.PhaseOfDistance(center.Dist(pos), lambda) + offset
		if noise != nil {
			ph += noise(k)
		}
		out[i] = stream.Sample{
			Time:  time.Duration(k) * 10 * time.Millisecond,
			Pos:   pos,
			Phase: rf.WrapPhase(ph),
		}
	}
	return out
}

// loopRig is an engine+monitor+controller stack wired the way cmd/liond
// wires them.
type loopRig struct {
	mon  *health.Monitor
	eng  *stream.Engine
	ctrl *Controller
}

func newLoopRig(t *testing.T, antenna geom.Vec3, lambda, calOffset float64, rules []health.Rule, ctrlCfg Config) *loopRig {
	t.Helper()
	mon, err := health.New(health.Config{
		Rules: rules,
		Calibrations: []health.Calibration{{
			Antenna: "A1", Center: antenna, Offset: calOffset, Lambda: lambda,
			Window: 64,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := stream.New(stream.Config{
		WindowSize: 128,
		MinSamples: 32,
		SolveEvery: 16,
		Solver:     stream.Line2DSolver(lambda, []float64{0.2}, true, core.DefaultSolveOptions()),
		Monitor:    mon,
		Antenna:    "A1",
		Profile:    &stream.Profile{Antenna: "A1", Center: antenna, Offset: calOffset, Lambda: lambda},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrlCfg.Engine = eng
	ctrlCfg.PositiveSide = true
	ctrl, err := New(ctrlCfg)
	if err != nil {
		t.Fatal(err)
	}
	mon.SetOnTransition(ctrl.OnTransition)
	t.Cleanup(func() {
		ctrl.Close()
		eng.Close(context.Background())
	})
	return &loopRig{mon: mon, eng: eng, ctrl: ctrl}
}

// feed ingests samples in paced chunks with a Flush between them, the same
// cadence pattern the stream e2e tests use so the alert state machine sees
// distinct evaluation times.
func (r *loopRig) feed(t *testing.T, samples []stream.Sample) {
	t.Helper()
	r.feedTag(t, "T1", samples)
}

// feedTag is feed for a tag other than T1.
func (r *loopRig) feedTag(t *testing.T, tag string, samples []stream.Sample) {
	t.Helper()
	for i := 0; i < len(samples); i += 40 {
		end := min(i+40, len(samples))
		for _, s := range samples[i:end] {
			if err := r.eng.Ingest(tag, s); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.eng.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// assertOneRecord checks that the engine's active profile and the
// monitor's drift reference hold the same calibration, and returns it.
func (r *loopRig) assertOneRecord(t *testing.T) stream.Profile {
	t.Helper()
	prof, _, _ := r.eng.ActiveProfile()
	ds := r.mon.Drifts()
	if len(ds) != 1 || ds[0].Center != prof.Center || ds[0].Calibrated != prof.Offset {
		t.Fatalf("active profile %+v and drift reference %+v disagree", prof, ds)
	}
	return prof
}

func findAlert(alerts []health.Alert, rule string, state health.State) *health.Alert {
	for i := range alerts {
		if alerts[i].Rule == rule && alerts[i].State == state {
			return &alerts[i]
		}
	}
	return nil
}

func (r *loopRig) waitOutcome(t *testing.T, want Outcome) Event {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, ev := range r.ctrl.History() {
			if ev.Outcome == want {
				return ev
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no %q event within deadline; history: %+v", want, r.ctrl.History())
	return Event{}
}

// TestClosedLoopEndToEnd walks the whole closed loop the paper stops short
// of: a calibrated stream drifts (antenna offset steps by 0.05 λ of ranging
// error), the drift alert fires, the controller re-solves the Eq. 17 offset
// and phase center from the live window, validates it on held-out samples,
// hot-swaps the profile with no restart — and the drift alert then resolves
// on its own because the monitor's reference moved with the swap.
func TestClosedLoopEndToEnd(t *testing.T) {
	antenna := geom.V3(0.05, 0.8, 0)
	lambda := rf.DefaultBand().Wavelength()
	const calOffset = 1.2
	step := 0.05 * 4 * math.Pi
	// Hold-down long enough (in stream time) that by the time the alert
	// fires, the 128-sample engine window holds only post-step samples —
	// the evidence the re-solve needs is then self-consistent.
	const holdDown = 1500 * time.Millisecond
	const resolveAfter = 300 * time.Millisecond

	rig := newLoopRig(t, antenna, lambda, calOffset, []health.Rule{{
		Name: "calibration_drift", Signal: health.SignalDrift,
		Threshold: 0.02, HoldDown: holdDown, ResolveAfter: resolveAfter,
		Severity: health.SevCritical,
	}}, Config{MinSamples: 64})

	// Phase 1: healthy stream at the calibrated offset. No alerts, no runs.
	rig.feed(t, recalTrace(antenna, lambda, calOffset, 0, 400, nil))
	if alerts := rig.mon.Alerts(); len(alerts) != 0 {
		t.Fatalf("healthy replay raised alerts: %+v", alerts)
	}
	if h := rig.ctrl.History(); len(h) != 0 {
		t.Fatalf("healthy replay triggered recalibration: %+v", h)
	}

	// Phase 2: the offset steps — an uncalibrated antenna swap mid-run.
	rig.feed(t, recalTrace(antenna, lambda, calOffset+step, 400, 400, nil))

	swapped := rig.waitOutcome(t, OutcomeSwapped)
	if swapped.Reason != "alert:calibration_drift" {
		t.Errorf("swap reason = %q, want alert:calibration_drift", swapped.Reason)
	}
	if math.Abs(swapped.DriftLambda-0.05) > 0.01 {
		t.Errorf("swap recorded drift %v λ, want ≈0.05", swapped.DriftLambda)
	}
	if swapped.Samples < 64 {
		t.Errorf("swap used %d evidence samples, want ≥64", swapped.Samples)
	}
	wantOffset := rf.WrapPhase(calOffset + step)
	if d := math.Abs(rf.WrapPhaseSigned(swapped.NewOffset - wantOffset)); d > 0.05 {
		t.Errorf("re-solved offset %v, want %v (Δ %v rad)", swapped.NewOffset, wantOffset, d)
	}
	if d := swapped.NewCenter.Dist(antenna); d > 0.02 {
		t.Errorf("re-solved center %v is %v m from truth %v", swapped.NewCenter, d, antenna)
	}
	if !(swapped.NewRMS < swapped.OldRMS) {
		t.Errorf("holdout RMS did not improve: old %v new %v", swapped.OldRMS, swapped.NewRMS)
	}
	prof, version, ok := rig.eng.ActiveProfile()
	if !ok || version != swapped.ProfileVersion || version < 2 {
		t.Fatalf("ActiveProfile version=%d ok=%v, want swap's %d", version, ok, swapped.ProfileVersion)
	}
	if d := math.Abs(rf.WrapPhaseSigned(prof.Offset - wantOffset)); d > 0.05 {
		t.Errorf("active profile offset %v, want %v", prof.Offset, wantOffset)
	}
	rig.assertOneRecord(t)
	// Probation starts with the swap and clears when the alert resolves.
	// Phase 2 keeps streaming after the swap, so by now either is valid —
	// but probation without a resolving alert, or vice versa, is a bug.
	if !rig.ctrl.OnProbation() {
		if a := findAlert(rig.mon.Alerts(), "calibration_drift", health.StateResolved); a == nil {
			t.Errorf("probation cleared but drift alert never resolved: %+v", rig.mon.Alerts())
		}
	}

	// Phase 3: the stream continues at the new offset. Estimates stay on
	// the truth under the swapped profile, and with the drift reference
	// re-anchored the alert heals without intervention.
	rig.feed(t, recalTrace(antenna, lambda, calOffset+step, 800, 400, nil))
	est, ok := rig.eng.Latest("T1")
	if !ok || est.Err != nil {
		t.Fatalf("post-swap estimate: ok=%v err=%v", ok, est.Err)
	}
	if est.ProfileVersion != version {
		t.Errorf("post-swap estimate profile version %d, want %d", est.ProfileVersion, version)
	}
	if d := est.Solution.Position.Dist(antenna); d > 0.02 {
		t.Errorf("post-swap estimate %v is %v m from truth", est.Solution.Position, d)
	}
	resolved := false
	for _, a := range rig.mon.Alerts() {
		if a.Rule == "calibration_drift" && a.State == health.StateFiring {
			t.Errorf("drift alert still firing after recalibration: %+v", a)
		}
		if a.Rule == "calibration_drift" && a.State == health.StateResolved {
			resolved = true
		}
	}
	if !resolved {
		t.Errorf("drift alert did not resolve after swap: %+v", rig.mon.Alerts())
	}
	if rig.ctrl.OnProbation() {
		t.Error("probation not cleared by the alert resolving")
	}
}

// TestRecalSolvesOnAlertTag: the re-solve reads the live window of the tag
// the firing drift alert names. A0 holds an equally full window of samples
// from before the offset stepped, and sorts first, so the longest-window
// fallback would pick it and re-solve the stale calibration.
func TestRecalSolvesOnAlertTag(t *testing.T) {
	antenna := geom.V3(0.05, 0.8, 0)
	lambda := rf.DefaultBand().Wavelength()
	const calOffset = 1.2
	rig := newLoopRig(t, antenna, lambda, calOffset, []health.Rule{{
		Name: "calibration_drift", Signal: health.SignalDrift,
		Threshold: 0.02, HoldDown: 1500 * time.Millisecond, Severity: health.SevCritical,
	}}, Config{MinSamples: 64})

	rig.feedTag(t, "A0", recalTrace(antenna, lambda, calOffset, 0, 200, nil))
	rig.feed(t, recalTrace(antenna, lambda, calOffset+0.05*4*math.Pi, 200, 400, nil))

	swapped := rig.waitOutcome(t, OutcomeSwapped)
	var fired *health.Alert
	for _, a := range rig.mon.Alerts() {
		if a.Rule == "calibration_drift" && a.State != health.StatePending {
			fired = &a
		}
	}
	if fired == nil || fired.Tag != "T1" {
		t.Fatalf("drift alert = %+v, want one fired by T1", fired)
	}
	if swapped.Tag != fired.Tag {
		t.Errorf("re-solved on %s's window, want the alert's tag %s", swapped.Tag, fired.Tag)
	}
}

// TestRejectedCandidateLeavesProfileUntouched: when the active profile is
// already the best explanation of the evidence (here: the truth, observed
// through zero-mean deterministic phase noise), a re-solve must not beat it
// by the margin — and a rejected candidate must leave the active profile,
// the monitor calibration, and the profile version exactly as they were.
func TestRejectedCandidateLeavesProfileUntouched(t *testing.T) {
	antenna := geom.V3(0.05, 0.8, 0)
	lambda := rf.DefaultBand().Wavelength()
	const calOffset = 2.1

	// Empty (not nil) rule set: no default rules, so only manual triggers run.
	rig := newLoopRig(t, antenna, lambda, calOffset, []health.Rule{}, Config{
		MinSamples: 64,
		Margin:     0.25,
	})
	// Zero-mean period-3 perturbation: balanced over both the training and
	// the every-4th holdout split, so no candidate offset can absorb it.
	noise := func(k int) float64 { return []float64{0.3, 0, -0.3}[k%3] }
	rig.feed(t, recalTrace(antenna, lambda, calOffset, 0, 128, noise))

	profBefore, verBefore, _ := rig.eng.ActiveProfile()
	ev, err := rig.ctrl.Trigger("manual")
	if err != nil {
		t.Fatal(err)
	}
	if ev.Outcome != OutcomeRejected {
		t.Fatalf("outcome = %q (err %q), want rejected; event %+v", ev.Outcome, ev.Err, ev)
	}
	if ev.NewRMS <= (1-0.25)*ev.OldRMS {
		t.Errorf("event says candidate beat margin (old %v new %v) yet was rejected", ev.OldRMS, ev.NewRMS)
	}
	profAfter, verAfter, _ := rig.eng.ActiveProfile()
	if profAfter != profBefore || verAfter != verBefore {
		t.Errorf("rejected run changed profile: %+v v%d → %+v v%d", profBefore, verBefore, profAfter, verAfter)
	}
	if cal := rig.assertOneRecord(t); cal.Offset != calOffset {
		t.Errorf("rejected run changed the calibration offset to %v", cal.Offset)
	}
	if rig.ctrl.OnProbation() {
		t.Error("rejected run entered probation")
	}
}

// TestRollbackRestoresPreviousProfile: a swap enters probation; when the
// post-swap world turns out to match the previous profile again and the
// re-solve cannot produce a candidate (degenerate clustered geometry), the
// controller rolls the previous profile back in.
func TestRollbackRestoresPreviousProfile(t *testing.T) {
	antenna := geom.V3(0.05, 0.8, 0)
	lambda := rf.DefaultBand().Wavelength()
	const calOffset = 1.0
	const drifted = 2.3

	rig := newLoopRig(t, antenna, lambda, calOffset, []health.Rule{}, Config{MinSamples: 64})

	// Step 1: evidence at a drifted offset → manual trigger swaps.
	rig.feed(t, recalTrace(antenna, lambda, drifted, 0, 128, nil))
	ev, err := rig.ctrl.Trigger("manual")
	if err != nil {
		t.Fatal(err)
	}
	if ev.Outcome != OutcomeSwapped {
		t.Fatalf("outcome = %q (err %q), want swapped", ev.Outcome, ev.Err)
	}
	if !rig.ctrl.OnProbation() {
		t.Fatal("no probation after swap")
	}

	// Step 2: the drift was transient — the stream reverts to the original
	// offset, but the tag now sits still (sub-millimetre jitter), so the
	// line solve has no pairing baseline and the re-solve must fail. The
	// previous profile explains this evidence exactly; the active one is
	// ~1.3 rad off. That is the rollback condition.
	clustered := make([]stream.Sample, 128)
	for i := range clustered {
		pos := geom.V3(0.2+0.0001*float64(i%7), 0, 0)
		clustered[i] = stream.Sample{
			Time:  time.Duration(128+i) * 10 * time.Millisecond,
			Pos:   pos,
			Phase: rf.WrapPhase(rf.PhaseOfDistance(antenna.Dist(pos), lambda) + calOffset),
		}
	}
	rig.feed(t, clustered)

	ev2, err := rig.ctrl.Trigger("manual")
	if err != nil {
		t.Fatal(err)
	}
	if ev2.Outcome != OutcomeFailed {
		t.Fatalf("degenerate evidence outcome = %q, want failed", ev2.Outcome)
	}
	var rolled *Event
	for _, h := range rig.ctrl.History() {
		if h.Outcome == OutcomeRolledBack {
			rolled = &h
			break
		}
	}
	if rolled == nil {
		t.Fatalf("no rollback event; history: %+v", rig.ctrl.History())
	}
	if rolled.Reason != "rollback" {
		t.Errorf("rollback reason = %q", rolled.Reason)
	}
	prof, version, _ := rig.eng.ActiveProfile()
	if prof.Offset != calOffset {
		t.Errorf("active offset after rollback = %v, want original %v", prof.Offset, calOffset)
	}
	if version != rolled.ProfileVersion || version < 3 {
		t.Errorf("profile version %d, want rollback's %d (≥3)", version, rolled.ProfileVersion)
	}
	rig.assertOneRecord(t)
	if rig.ctrl.OnProbation() {
		t.Error("probation survived the rollback")
	}
}

// TestControllerValidation covers New's configuration contract and the
// closed-controller behaviour.
func TestControllerValidation(t *testing.T) {
	antenna := geom.V3(0.05, 0.8, 0)
	lambda := rf.DefaultBand().Wavelength()
	newEngine := func(prof *stream.Profile) *stream.Engine {
		eng, err := stream.New(stream.Config{
			WindowSize: 16, MinSamples: 8,
			Solver:  stream.Line2DSolver(lambda, []float64{0.2}, true, core.DefaultSolveOptions()),
			Antenna: "A1",
			Profile: prof,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close(context.Background()) })
		return eng
	}
	eng := newEngine(&stream.Profile{Antenna: "A1", Center: antenna, Offset: 1, Lambda: lambda})
	raw := newEngine(nil)
	unnamed := newEngine(&stream.Profile{Center: antenna, Offset: 1, Lambda: lambda})
	noLambda := newEngine(&stream.Profile{Antenna: "A1", Center: antenna, Offset: 1, Lambda: 0})

	bad := []Config{
		{},                          // no engine
		{Engine: eng, Margin: 1.5},  // margin out of range
		{Engine: eng, Margin: -0.1}, // negative margin
		{Engine: raw},               // no active profile
		{Engine: unnamed},           // profile names no antenna
		{Engine: noLambda},          // profile wavelength 0
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}

	ctrl, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Close()
	ctrl.Close() // idempotent
	if _, err := ctrl.Trigger("manual"); err != ErrClosed {
		t.Errorf("Trigger after Close: err = %v, want ErrClosed", err)
	}
}

// TestControllerRaceStress exercises every controller surface concurrently
// under the race detector: live ingest on several tags, manual triggers
// from two goroutines, synthetic alert transitions through the hook, and
// history/probation reads — while real swaps land on the engine. The
// invariants checked are modest (bounded history, monotonic sequence,
// consistent final profile); the -race run is the teeth.
func TestControllerRaceStress(t *testing.T) {
	antenna := geom.V3(0.05, 0.8, 0)
	lambda := rf.DefaultBand().Wavelength()
	const calOffset = 0.4
	const trueOffset = 2.9

	rig := newLoopRig(t, antenna, lambda, calOffset, []health.Rule{}, Config{
		MinSamples: 64,
	})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, tag := range []string{"T1", "T2"} {
		wg.Add(1)
		go func(tag string) {
			defer wg.Done()
			for _, s := range recalTrace(antenna, lambda, trueOffset, 0, 600, nil) {
				if err := rig.eng.Ingest(tag, s); err != nil {
					t.Errorf("ingest %s: %v", tag, err)
					return
				}
			}
		}(tag)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := rig.ctrl.Trigger("stress"); err != nil {
					t.Errorf("trigger: %v", err)
					return
				}
			}
		}()
	}
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			state := health.StateFiring
			if i%2 == 1 {
				state = health.StateResolved
			}
			rig.ctrl.OnTransition(health.Alert{
				Rule: "calibration_drift", Scope: "antenna:A1", State: state, Value: 0.1,
			})
			rig.ctrl.History()
			rig.ctrl.OnProbation()
			time.Sleep(100 * time.Microsecond)
		}
	}()

	wg.Wait()
	close(stop)
	churn.Wait()
	if err := rig.eng.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Let any queued alert-triggered run drain before asserting.
	if _, err := rig.ctrl.Trigger("drain"); err != nil {
		t.Fatal(err)
	}

	// 2×25 manual triggers plus the drain run overflow the audit ring.
	hist := rig.ctrl.History()
	if len(hist) == 0 || len(hist) > auditHistory {
		t.Fatalf("history length %d, want 1..%d", len(hist), auditHistory)
	}
	for i := 1; i < len(hist); i++ {
		if hist[i-1].Seq <= hist[i].Seq {
			t.Errorf("history not newest-first by sequence: %d then %d", hist[i-1].Seq, hist[i].Seq)
		}
	}
	swappedSeen := false
	for _, ev := range hist {
		if ev.Outcome == OutcomeSwapped {
			swappedSeen = true
		}
	}
	prof, version, ok := rig.eng.ActiveProfile()
	if !ok {
		t.Fatal("no active profile after stress")
	}
	if swappedSeen && math.Abs(rf.WrapPhaseSigned(prof.Offset-trueOffset)) > 0.1 && prof.Offset != calOffset {
		t.Errorf("active profile offset %v is neither the re-solved %v nor the original %v", prof.Offset, trueOffset, calOffset)
	}
	_ = version
}
