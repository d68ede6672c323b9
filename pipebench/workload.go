package main

import (
	"fmt"
	"time"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/sim"
	"github.com/rfid-lion/lion/internal/stats"
	"github.com/rfid-lion/lion/internal/stream"
	"github.com/rfid-lion/lion/internal/traject"
	"github.com/rfid-lion/lion/internal/wire"
)

// Testbed constants shared by every workload. The antenna's true phase
// center is displaced from its mounting point by 2.8 cm (the paper measures
// 2–3 cm, Fig. 2); the set-up's Eq. 17 calibration must recover it. All
// lanes and the antenna lie in the z = 0 plane, so the 2-D line solver's
// estimate is directly comparable to the true phase center.
var (
	antennaMount  = geom.V3(0, 0.8, 0)
	antennaOffset = geom.V3(0.022, -0.018, 0)
)

const (
	readerPhase = 2.74 // θ_R, radians
	tagPhase    = 0.4  // θ_T of every tag (one tag model), radians
	rateHz      = 100  // per-tag read rate
	speed       = 0.5  // belt / forklift speed, m/s
	antennaID   = "A1"
)

// workload is one traffic shape plus the engine configuration that serves
// it. Traffic is a set of slots, each carrying a succession of tags that
// make one straight pass at constant speed; slot s first enters at tick
// s·pass/slots, so once the ramp is over every slot always has a tag in view
// and each tick holds exactly one read per slot. A frame is frameTicks
// consecutive ticks.
type workload struct {
	name        string
	slots       int     // tags in view at once
	passM       float64 // length of one pass, m
	frameTicks  int     // ticks per wire frame
	window      int     // stream.Config.WindowSize
	minSamples  int     // stream.Config.MinSamples
	solveEvery  int     // stream.Config.SolveEvery
	smooth      int     // stream.Config.Smooth
	incremental bool    // IncrementalLine2DFactory instead of Line2DSolver
	sloEvery    int     // frames per SLO read op; 0 reads Latest after every frame
	gateOneIn   uint64  // about one published estimate in gateOneIn is re-solved offline
	recycle     int     // passes after which a tag id returns; 0 never reuses ids
	prefix      int     // timed frames behind the fixed-work metrics (accuracy, state)
	chunk       int     // frames generated per input chunk
}

// intervals is liond's default pairing interval for the line solver.
var intervals = []float64{0.2}

// The workloads run liond's solver settings with MinSamples 128 instead of
// 8: at 5 mm between reads a window needs about 43 samples before any pair
// is 0.2 m apart, and the unsmoothed incremental solve still fails on some
// windows of 64. Portal tag ids return after 12 passes (returnable pallets),
// so the session table stops growing once the fixed-work prefix is done;
// conveyor ids never return, because a returning parcel's 256-sample window
// would mix two passes.
var workloads = []workload{
	{
		name:  "conveyor",
		slots: 16, passM: 2.4, frameTicks: 16,
		window: 256, minSamples: 128, solveEvery: 16, smooth: 9,
		gateOneIn: 256, prefix: 1000, chunk: 1000,
	},
	{
		name:  "conveyor-incremental",
		slots: 16, passM: 2.4, frameTicks: 1,
		window: 256, minSamples: 128, solveEvery: 1, incremental: true,
		gateOneIn: 256, prefix: 2000, chunk: 2000,
	},
	{
		name:  "portal",
		slots: 256, passM: 1.2, frameTicks: 2,
		window: 240, minSamples: 240, solveEvery: 240, smooth: 9,
		sloEvery: 8, recycle: 12,
		gateOneIn: 32, prefix: 1200, chunk: 1200,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// passTicks is the number of reads in one pass.
func (w workload) passTicks() int { return int(w.passM/speed*rateHz + 0.5) }

// slotStart is the tick at which slot s carries its first tag.
func (w workload) slotStart(s int) int { return s * w.passTicks() / w.slots }

// rampTicks is the first tick at which every slot has a tag in view.
func (w workload) rampTicks() int { return w.slotStart(w.slots - 1) }

// laneY places each slot on its own lane, so no two tags ever share a
// position at the same tick.
func (w workload) laneY(s int) float64 { return 0.3 * float64(s) / float64(w.slots) }

// solver returns the engine's window solver, or its session-solver
// factory for the incremental workload, exactly as liond builds them.
func (w workload) solver(lambda float64) (stream.Solver, func() stream.SessionSolver, error) {
	if w.incremental {
		f, err := stream.IncrementalLine2DFactory(lambda, intervals, true, core.DefaultSolveOptions())
		return nil, f, err
	}
	return stream.Line2DSolver(lambda, intervals, true, core.DefaultSolveOptions()), nil, nil
}

// parcel is one tag's single pass: its id and the reads the simulator
// produced, already stamped with the global tick clock.
type parcel struct {
	id      int
	tag     string
	start   int // tick of the first read
	samples []sim.Sample
	st      *tagState // the engine-side window accounting of the tag
}

// expect is one estimate the engine must publish for a frame, derived from
// the input and the documented MinSamples/SolveEvery rules.
type expect struct {
	tag    string
	parcel int
	end    int // index in the parcel of the sample that triggered the solve
	seq    uint64
	window int
	to     time.Duration
	pos    geom.Vec3 // position of the triggering read, the last of the window
	gate   bool      // re-solved offline by the correctness gate
}

// frame is one wire frame and everything needed to check what it triggers.
type frame struct {
	bytes   []byte
	samples int
	expects []expect
	tags    []string // tags read in this frame, in first-read order
	done    []string // tags whose pass ended in this frame
}

// generator turns a seed into the deterministic frame sequence of a
// workload. Frames depend only on (workload, seed, frame index), so chunked
// generation replays the same bytes as generating everything at once.
type generator struct {
	w      workload
	seed   int64
	env    *sim.Environment
	ant    *sim.Antenna
	tick   int
	cur    []*parcel   // per slot: the parcel in view, nil before the slot starts
	pool   []*tagState // per recycled tag id
	batch  []dataset.TaggedSample
	genDur time.Duration
}

// tagState mirrors the engine's per-tag window accounting.
type tagState struct {
	n, since int
	seq      uint64
}

func newGenerator(w workload, seed int64) (*generator, error) {
	env, err := sim.NewEnvironment()
	if err != nil {
		return nil, err
	}
	return &generator{
		w:    w,
		seed: seed,
		env:  env,
		ant: &sim.Antenna{
			ID:                antennaID,
			PhysicalCenter:    antennaMount,
			PhaseCenterOffset: antennaOffset,
			PhaseOffset:       readerPhase,
		},
		cur:  make([]*parcel, w.slots),
		pool: make([]*tagState, w.recycle*w.slots),
	}, nil
}

// makeParcel simulates the pass of parcel id; the same (seed, id) always
// yields the same reads.
func (g *generator) makeParcel(id int) (*parcel, error) {
	w := g.w
	slot, k := id%w.slots, id/w.slots
	start := w.slotStart(slot) + k*w.passTicks()
	y := w.laneY(slot)
	trj, err := traject.NewLinear(geom.V3(-w.passM/2, y, 0), geom.V3(w.passM/2, y, 0), speed)
	if err != nil {
		return nil, err
	}
	reader, err := sim.NewReader(g.env, sim.ReaderConfig{RateHz: rateHz, Seed: stats.SplitSeed(g.seed, id)})
	if err != nil {
		return nil, err
	}
	raw, err := reader.Scan(g.ant, &sim.Tag{ID: "tag", PhaseOffset: tagPhase}, trj)
	if err != nil {
		return nil, err
	}
	if len(raw) < w.passTicks() {
		return nil, fmt.Errorf("parcel %d: scan gave %d reads, want %d", id, len(raw), w.passTicks())
	}
	raw = raw[:w.passTicks()]
	for i := range raw {
		raw[i].Time = time.Duration(start+i) * time.Second / rateHz
	}
	tag, st := id, &tagState{}
	if w.recycle > 0 {
		tag %= len(g.pool)
		if g.pool[tag] == nil {
			g.pool[tag] = st
		}
		st = g.pool[tag]
	}
	return &parcel{id: id, tag: fmt.Sprintf("T%07d", tag), start: start, samples: raw, st: st}, nil
}

// next produces the following frame.
func (g *generator) next() (frame, error) {
	begin := time.Now()
	defer func() { g.genDur += time.Since(begin) }()
	w := g.w
	var f frame
	g.batch = g.batch[:0]
	for t := 0; t < w.frameTicks; t, g.tick = t+1, g.tick+1 {
		for s := 0; s < w.slots; s++ {
			if g.tick < w.slotStart(s) {
				continue
			}
			p := g.cur[s]
			if p == nil || g.tick-p.start >= w.passTicks() {
				id := s
				if p != nil {
					id = p.id + w.slots
				}
				var err error
				if p, err = g.makeParcel(id); err != nil {
					return frame{}, err
				}
				g.cur[s] = p
			}
			i := g.tick - p.start
			g.batch = append(g.batch, dataset.Tagged(p.tag, p.samples[i]))
			if t == 0 || i == 0 {
				f.tags = append(f.tags, p.tag) // first read of p in this frame
			}
			if e, ok := g.account(p, i); ok {
				f.expects = append(f.expects, e)
			}
			if i == w.passTicks()-1 {
				f.done = append(f.done, p.tag)
			}
		}
	}
	b, err := wire.AppendFrame(nil, g.batch)
	if err != nil {
		return frame{}, err
	}
	f.bytes = b
	f.samples = len(g.batch)
	return f, nil
}

// account applies the engine's dispatch rule to one accepted sample: the
// window grows to WindowSize (EvictOldest), and a solve is dispatched once it
// holds MinSamples and SolveEvery samples have arrived since the last one.
func (g *generator) account(p *parcel, i int) (expect, bool) {
	w := g.w
	st := p.st
	if st.n < w.window {
		st.n++
	}
	st.since++
	if st.n < w.minSamples || st.since < w.solveEvery {
		return expect{}, false
	}
	st.since = 0
	st.seq++
	e := expect{tag: p.tag, parcel: p.id, end: i, seq: st.seq, window: st.n, to: wireTime(p.samples[i]), pos: p.samples[i].TagPos}
	e.gate = uint64(stats.SplitSeed(g.seed^0x5bd1e995, p.id*4096+int(st.seq)))%w.gateOneIn == 0
	return e, true
}

// wireTime is the timestamp the engine sees after the wire round trip.
func wireTime(s sim.Sample) time.Duration {
	return dataset.Tagged("", s).Sample().Time
}

// truth is the simulator's true phase center.
func truth() geom.Vec3 { return antennaMount.Add(antennaOffset) }
