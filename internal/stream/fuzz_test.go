package stream

import (
	"context"
	"fmt"
	"math"
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
// coordinates wherever it claims to know them.
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
		if r.next()%2 == 0 {
			cfg.Profile = &Profile{Antenna: "A1", Center: center, Offset: 1, Lambda: lambda}
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
		// Every published estimate reaches the subscriber, which keeps up:
		// its checks finish once Close closes the channel.
		ests, _ := e.Subscribe()
		bad := make(chan string, 1)
		go func() {
			defer close(bad)
			for est := range ests {
				if msg := badEstimate(est); msg != "" {
					select {
					case bad <- msg:
					default:
					}
				}
			}
		}()
		swapAt := int(r.next())

		var offered int
		var now time.Duration
		x := -0.5
		for len(r) > 0 {
			if offered == swapAt {
				// A non-finite offset fails validation and changes nothing.
				e.SwapProfile(Profile{Antenna: "A1", Center: center, Offset: fuzzFloat(r.next(), 1.5, 0.01), Lambda: lambda})
			}
			tag := string(rune('A' + r.next()%3))
			now += fuzzSteps[r.next()%uint8(len(fuzzSteps))]
			x += 0.001
			s := Sample{Time: now, Pos: geom.V3(fuzzFloat(r.next(), x, 1e-4), 0, 0), Phase: fuzzFloat(r.next(), 0, fuzzPhaseStep)}
			e.Ingest(tag, s) // a non-finite sample fails and counts as Rejected
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
		if msg := <-bad; msg != "" {
			t.Fatal(msg)
		}
		if m := e.Metrics(); m.SubDropped != 0 {
			t.Logf("%d estimates went unchecked: the subscriber fell behind", m.SubDropped)
		}
	})
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
