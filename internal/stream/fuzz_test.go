package stream

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/health"
	"github.com/rfid-lion/lion/internal/rf"
)

// fuzzReader hands out the fuzz input a byte at a time, then zeros.
type fuzzReader []byte

func (r *fuzzReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// fuzzFloat maps a byte onto the value classes a reader or a corrupt frame
// can deliver: the top seven bytes are NaN, both infinities, the finite
// extremes, a denormal-scale value and zero; every other byte is an
// ordinary value, base + b·scale.
func fuzzFloat(b byte, base, scale float64) float64 {
	switch b {
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	case 252:
		return math.MaxFloat64
	case 251:
		return -math.MaxFloat64
	case 250:
		return 1e-300
	case 249:
		return 0
	}
	return base + float64(b)*scale
}

// fuzzPhaseStep quantises ordinary fuzz phases: bytes 0..248 span
// [0, 6.45] rad, a full turn.
const fuzzPhaseStep = 0.026

// fuzzSteps are the time steps between consecutive samples: a 100 Hz read,
// zero, backwards, and steps large enough to overflow the stream clock.
var fuzzSteps = [...]time.Duration{
	10 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond, 0,
	-10 * time.Millisecond, time.Hour, -time.Hour, math.MaxInt64 / 3,
}

// FuzzEngine drives one engine with a drift Monitor attached through a
// fuzz-chosen valid Config and sample stream: tag ids from a three-letter
// alphabet, zero, negative and huge time steps, NaN, infinite and extreme
// phases and positions, and one SwapProfile mid-stream. After Flush it
// checks that nothing panicked or hung, that every offered sample was
// either ingested or rejected, that no more samples were evicted than
// ingested, and that every published estimate carries an error or finite
// coordinates wherever it claims to know them. After Close it checks that
// every estimate the subscriber received is, bit for bit, SolveWindow over
// the window its From, To, Window and ProfileVersion identify.
func FuzzEngine(f *testing.F) {
	lambda := rf.DefaultBand().Wavelength()
	center := geom.V3(0, 0.8, 0)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{60, 4, 1, 0, 0, 1, 0, 9, 0, 7, 255, 254, 0, 3, 253, 252, 1, 5, 251, 250, 2, 6, 249, 7})
	// Clean scans of one tag past the antenna, 100 reads a second, one per
	// solver, with the profile swapped after 40 reads: solves succeed.
	for _, head := range [][]byte{
		{28, 4, 1, 0, 16, 0, 0, 0, 40}, // Line2DSolver, Smooth 0, initial profile
		{28, 4, 1, 0, 16, 1, 1, 40},    // incremental factory, no profile
	} {
		seed := head
		x := -0.5
		for i := 0; i < 96; i++ {
			if i == 40 {
				seed = append(seed, 20) // the swapped offset, 1.5 + 20·0.01 rad
			}
			x += 0.001
			ph := rf.WrapPhase(rf.PhaseOfDistance(center.Dist(geom.V3(x, 0, 0)), lambda) + 1)
			seed = append(seed, 0, 0, 0, byte(math.Min(ph/fuzzPhaseStep, 248)))
		}
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		cfg := Config{
			WindowSize: 4 + int(r.next()%61),
			SolveEvery: int(r.next() % 9),
			Workers:    1 + int(r.next()%2),
			WindowSpan: time.Duration(r.next()%4) * 50 * time.Millisecond,
			Antenna:    "A1",
		}
		cfg.MinSamples = int(r.next()) % (cfg.WindowSize + 1)
		opts := core.DefaultSolveOptions()
		// The offline reference, with a workspace pool of its own: the
		// engine's solver has its parameters, and a factory session solves
		// as it does at Smooth 0.
		offline := Line2DSolver(lambda, []float64{0.01}, true, opts)
		if r.next()%2 == 0 {
			cfg.Solver = Line2DSolver(lambda, []float64{0.01}, true, opts)
			cfg.Smooth = []int{0, 1, 3, 5}[r.next()%4]
		} else {
			factory, err := IncrementalLine2DFactory(lambda, []float64{0.01}, true, opts)
			if err != nil {
				t.Fatal(err)
			}
			cfg.SolverFactory = factory
		}
		// offsets[v] is the phase offset profile version v corrects.
		offsets := map[uint64]float64{}
		if r.next()%2 == 0 {
			cfg.Profile = &Profile{Antenna: "A1", Center: center, Offset: 1, Lambda: lambda}
			offsets[1] = cfg.Profile.Offset
		}
		mon, err := health.New(health.Config{Calibrations: []health.Calibration{{
			Antenna: "A1", Center: center, Offset: 1, Lambda: lambda, Window: 32,
		}}})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Monitor = mon
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("valid config %+v refused: %v", cfg, err)
		}
		// Every published estimate reaches the subscriber unless it falls
		// behind; the received ones are complete once Close closes the
		// channel.
		ests, _ := e.Subscribe()
		published := make(chan []Estimate, 1)
		go func() {
			var got []Estimate
			for est := range ests {
				got = append(got, est)
			}
			published <- got
		}()
		swapAt := int(r.next())

		var offered int
		var now time.Duration
		x := -0.5
		accepted := map[string][]Sample{} // each tag's ingested samples, in order
		for len(r) > 0 {
			if offered == swapAt {
				// A non-finite offset fails validation and changes nothing.
				p := Profile{Antenna: "A1", Center: center, Offset: fuzzFloat(r.next(), 1.5, 0.01), Lambda: lambda}
				if v, err := e.SwapProfile(p); err == nil {
					offsets[v] = p.Offset
				}
			}
			tag := string(rune('A' + r.next()%3))
			now += fuzzSteps[r.next()%uint8(len(fuzzSteps))]
			x += 0.001
			s := Sample{Time: now, Pos: geom.V3(fuzzFloat(r.next(), x, 1e-4), 0, 0), Phase: fuzzFloat(r.next(), 0, fuzzPhaseStep)}
			if e.Ingest(tag, s) == nil { // a non-finite sample fails and counts as Rejected
				accepted[tag] = append(accepted[tag], s)
			}
			offered++
		}

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := e.Flush(ctx); err != nil {
			t.Fatalf("Flush did not finish: %v", err)
		}
		m := e.Metrics()
		if m.Ingested+m.Rejected != uint64(offered) {
			t.Fatalf("ingested %d + rejected %d != %d offered", m.Ingested, m.Rejected, offered)
		}
		if m.DroppedOverflow+m.DroppedAge > m.Ingested {
			t.Fatalf("evicted %d overflow + %d age of %d ingested", m.DroppedOverflow, m.DroppedAge, m.Ingested)
		}
		for _, tag := range e.Tags() {
			if est, ok := e.Latest(tag); ok {
				if msg := badEstimate(est); msg != "" {
					t.Fatal(msg)
				}
			}
		}
		if err := e.Close(ctx); err != nil {
			t.Fatal(err)
		}
		for _, est := range <-published {
			if msg := badEstimate(est); msg != "" {
				t.Fatal(msg)
			}
			if msg := offlineMismatch(est, accepted[est.Tag], offsets, cfg.Smooth, offline); msg != "" {
				t.Fatal(msg)
			}
		}
		if m := e.Metrics(); m.SubDropped != 0 {
			t.Logf("%d estimates went unchecked: the subscriber fell behind", m.SubDropped)
		}
	})
}

// offlineMismatch re-solves an estimate offline: SolveWindow over the
// Window consecutive samples of its tag's ingested stream that run from
// From to To, with the phase correction of its ProfileVersion applied as
// the engine applies it. Repeated timestamps can name several such runs;
// the estimate must equal the offline solve of one of them bit for bit, in
// its error or in every field of its Solution. It returns "" when one does.
func offlineMismatch(est Estimate, stream []Sample, offsets map[uint64]float64, smooth int, solver Solver) string {
	offset, corrected := offsets[est.ProfileVersion]
	if est.ProfileVersion != 0 && !corrected {
		return fmt.Sprintf("tag %s seq %d: profile version %d was never installed", est.Tag, est.Seq, est.ProfileVersion)
	}
	runs := 0
	win := make([]Sample, est.Window)
	for end := est.Window - 1; end < len(stream); end++ {
		start := end - est.Window + 1
		if stream[start].Time != est.From || stream[end].Time != est.To {
			continue
		}
		runs++
		copy(win, stream[start:end+1])
		if corrected {
			for i := range win {
				win[i].Phase = rf.WrapPhase(win[i].Phase - offset)
			}
		}
		sol, err := SolveWindow(win, smooth, solver, nil)
		if sameOutcome(est, sol, err) {
			return ""
		}
	}
	if runs == 0 {
		return fmt.Sprintf("tag %s seq %d: no run of %d ingested samples spans [%v, %v]",
			est.Tag, est.Seq, est.Window, est.From, est.To)
	}
	return fmt.Sprintf("tag %s seq %d: estimate (%v, err %v) differs from SolveWindow over each of the %d windows it names",
		est.Tag, est.Seq, est.Solution, est.Err, runs)
}

// sameOutcome reports whether an estimate is, bit for bit, the offline
// outcome (sol, err): the same error message, or a Solution whose every
// number has the same bits.
func sameOutcome(est Estimate, sol *core.Solution, err error) bool {
	if (est.Err == nil) != (err == nil) {
		return false
	}
	if err != nil {
		return est.Err.Error() == err.Error()
	}
	got := est.Solution
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	sameAll := func(a, b []float64) bool { return slices.EqualFunc(a, b, same) }
	return same(got.Position.X, sol.Position.X) && same(got.Position.Y, sol.Position.Y) &&
		same(got.Position.Z, sol.Position.Z) && got.Known == sol.Known && got.Dim == sol.Dim &&
		same(got.RefDistance, sol.RefDistance) && sameAll(got.RefDistances, sol.RefDistances) &&
		sameAll(got.Residuals, sol.Residuals) && sameAll(got.Weights, sol.Weights) &&
		same(got.MeanResidual, sol.MeanResidual) && same(got.MeanAbsResidual, sol.MeanAbsResidual) &&
		same(got.RMSResidual, sol.RMSResidual) && got.Iterations == sol.Iterations &&
		same(got.FinalResidual, sol.FinalResidual) && same(got.ConditionEstimate, sol.ConditionEstimate)
}

// badEstimate describes what is wrong with an estimate that carries no error
// yet no solution, or a non-finite coordinate its solution claims to know;
// it returns "" for a sound one.
func badEstimate(est Estimate) string {
	if est.Err != nil {
		return ""
	}
	sol := est.Solution
	if sol == nil {
		return fmt.Sprintf("tag %s seq %d: neither an error nor a solution", est.Tag, est.Seq)
	}
	for i, v := range [3]float64{sol.Position.X, sol.Position.Y, sol.Position.Z} {
		if sol.Known[i] && (math.IsNaN(v) || math.IsInf(v, 0)) {
			return fmt.Sprintf("tag %s seq %d: solved estimate with non-finite known coordinate %d: %v",
				est.Tag, est.Seq, i, sol.Position)
		}
	}
	return ""
}
