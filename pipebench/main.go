// Command pipebench is LION's closed-loop pipeline benchmark. In one process
// it calibrates the antenna from a simulated sweep (Eq. 17), then replays
// pre-generated simulator fleets as wire frames through wire.DecodeFrame →
// stream.Engine.IngestTagged → the window solver → Engine.Subscribe, sending
// each frame only after every estimate the previous one triggered has been
// published. See README.md for the workloads and metrics.
//
//	bash pipebench/run.sh --workload conveyor --seed 1 --seconds 30 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"

	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/stats"
)

func main() {
	code, err := cli(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
	}
	os.Exit(code)
}

// cli parses the command line, runs the workload and prints the report.
// The exit code is 0 on a correct run, 1 when a correctness check failed
// (the result is still printed) and 2 when the run could not complete.
func cli(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var o options
	name := fs.String("workload", "", "workload name: conveyor, conveyor-incremental or portal")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase, seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	o.trace = *trace == 1
	w, err := lookupWorkload(*name)
	if err != nil {
		return 2, err
	}
	if o.seconds <= 0 {
		return 2, errors.New("--seconds must be positive")
	}
	o.setups = setups
	// One P: the feeding goroutine, the engine's default pool (one worker)
	// and the collector share one CPU. See README.md for why the benchmark
	// does not run on both CPUs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r, err := run(w, o)
	if err != nil {
		return 2, err
	}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return 2, fmt.Errorf("metric %s has no finite value", m.name)
		}
	}
	r.print(out)
	if !r.correct {
		return 1, errors.New("correctness check failed")
	}
	return 0, nil
}

// setups is how many fresh set-ups a run makes; setup_s is their median,
// because one set-up of 30–90 ms varies by a fifth between runs.
const setups = 11

type options struct {
	seed    int64
	seconds float64
	trace   bool
	setups  int
	prefix  int // overrides the workload's fixed-work prefix when positive
}

// metric is one named result.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is everything one run reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	notes     []string // human-readable lines printed before the JSON
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// print writes the notes and, as the last line, the JSON result object.
func (r *result) print(out io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(out, n)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = val{m.value, m.unit}
	}
	// Every value is finite (cli checks), so encoding cannot fail.
	b, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	fmt.Fprintln(out, string(b))
}

// counts is the failure accounting of the measured pipeline.
type counts struct {
	samples, accepted      int
	expected, failedSolves int
	missing, extra         int
	firstErr               error
}

func (c *counts) add(f *frame, res *frameResult) {
	c.samples += f.samples
	c.accepted += res.accepted
	c.expected += len(f.expects)
	c.failedSolves += res.failed
	if c.firstErr == nil {
		c.firstErr = res.firstErr
	}
	c.missing += res.missing
	c.extra += res.extra
}

// clock accounts wall time and process CPU over the timed phase, excluding
// the harness's pauses (input generation, the state reading). It also cuts
// the phase into windows of about windowLen and keeps each window's
// throughput and CPU per sample: their medians are the reported rates,
// because a single total over the run moves with every stall of a shared
// machine.
type clock struct {
	wall, cpu time.Duration
	segWall   time.Time
	cpuAt     time.Duration
	running   bool

	winWall, winCPU time.Duration // totals at the start of the current window
	winSamples      int
	rate, cpuPer    []float64 // per window: samples/s, CPU µs per sample
}

// windowLen is the span of one rate window.
const windowLen = 100 * time.Millisecond

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (c *clock) resume() {
	c.running = true
	c.cpuAt = cpuTime()
	c.segWall = time.Now()
}

func (c *clock) pause() {
	if !c.running {
		return
	}
	c.running = false
	c.wall += time.Since(c.segWall)
	c.cpu += cpuTime() - c.cpuAt
}

func (c *clock) elapsed() time.Duration {
	if c.running {
		return c.wall + time.Since(c.segWall)
	}
	return c.wall
}

// tick adds a frame's samples and closes the window once it spans
// windowLen of active time. The clock must be running.
func (c *clock) tick(samples int) {
	c.winSamples += samples
	wall := c.elapsed()
	if wall-c.winWall < windowLen {
		return
	}
	cpu := c.cpu + cpuTime() - c.cpuAt
	dw, dc := wall-c.winWall, cpu-c.winCPU
	c.rate = append(c.rate, float64(c.winSamples)/dw.Seconds())
	c.cpuPer = append(c.cpuPer, float64(dc.Nanoseconds())/1e3/float64(c.winSamples))
	c.winWall, c.winCPU, c.winSamples = wall, cpu, 0
}

func run(w workload, o options) (*result, error) {
	r := &result{}
	prefix := w.prefix
	if o.prefix > 0 {
		prefix = o.prefix
	}
	g, err := newGenerator(w, o.seed)
	if err != nil {
		return nil, err
	}
	lambda := g.env.Wavelength()

	// Harness input, generated before the baseline heap reading and never
	// counted in setup_s.
	genStart := time.Now()
	sweep, err := newCalSweep(g)
	if err != nil {
		return nil, err
	}
	sweepDur := time.Since(genStart)
	warm, err := warmupFrames(g)
	if err != nil {
		return nil, err
	}
	chunk, err := genChunk(g, w.chunk)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	nHashed, sHashed := 0, 0
	for _, fs := range [][]frame{warm, chunk} {
		for i := range fs {
			h.Write(fs[i].bytes)
			nHashed++
			sHashed += fs[i].samples
		}
	}
	r.note("workload %s seed %d: input sha256 %s over %d frames (%d samples; warm-up %d frames)",
		w.name, o.seed, hex.EncodeToString(h.Sum(nil)), nHashed, sHashed, len(warm))

	// Harness buffers are sized before the baseline so that filling them
	// never shows up as pipeline state.
	var (
		frameMs  = make([]float64, 0, 1<<16)
		readUs   = make([]float64, 0, 1<<16)
		posErr   = make([]float64, 0, prefix*w.slots)
		gate     = make([]gated, 0, 1<<12)
		res      = frameResult{errs: make([]float64, 0, w.slots), gated: make([]gated, 0, w.slots)}
		doneTags = make([]string, 0, w.slots*max(w.sloEvery, 1))
	)
	runtime.GC()
	heap0 := heapAlloc()

	// Set-up, repeated on fresh engines; the last one serves the timed phase.
	var (
		setupS, calMs, warmMs []float64
		p                     *pipeline
		tr                    *tracer
		c                     counts
	)
	for i := 0; i < o.setups; i++ {
		if p != nil {
			p.close()
			p = nil
		}
		runtime.GC()
		if o.trace {
			tr = newTracer()
		}
		c = counts{}
		t0 := time.Now()
		cal, err := calibrate(sweep, lambda)
		if err != nil {
			return nil, fmt.Errorf("calibration: %w", err)
		}
		t1 := time.Now()
		if p, err = newPipeline(w, lambda, cal, tr); err != nil {
			return nil, err
		}
		t2 := time.Now()
		for k := range warm {
			if err := p.run(&warm[k], &res, false); err != nil {
				return nil, err
			}
			c.add(&warm[k], &res)
			if res.missing > 0 {
				return nil, fmt.Errorf("warm-up frame %d: %d estimates missing", k, res.missing)
			}
		}
		t3 := time.Now()
		setupS = append(setupS, t3.Sub(t0).Seconds())
		calMs = append(calMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
		warmMs = append(warmMs, float64(t3.Sub(t2).Nanoseconds())/1e6)
	}
	defer p.close()
	if tr != nil {
		tr.reset()
	}
	warmCounts := c
	solvesAt := p.eng.Metrics().Solves
	rebuildsAt, sessSolvesAt := tr.rebuilds()

	// Timed phase.
	var (
		clk      clock
		stateMB  float64
		chunkOff int // timed index of chunk[0]
	)
	budget := time.Duration(o.seconds * float64(time.Second))
	clk.resume()
	for fi := 0; ; fi++ {
		if fi-chunkOff == len(chunk) {
			clk.pause()
			chunkOff = fi
			chunk = nil
			if chunk, err = genChunk(g, w.chunk); err != nil {
				return nil, err
			}
			// Collect the generator's garbage now, so that no collection
			// it triggered runs on into the timed frames.
			runtime.GC()
			clk.resume()
		}
		if fi == prefix {
			clk.pause()
			runtime.GC()
			stateMB = float64(int64(heapAlloc())-int64(heap0)) / 1e6
			clk.resume()
		}
		f := &chunk[fi-chunkOff]
		if err := p.run(f, &res, fi < prefix); err != nil {
			return nil, err
		}
		c.add(f, &res)
		frameMs = append(frameMs, float64(res.latency.Nanoseconds())/1e6)
		posErr = append(posErr, res.errs...)
		gate = append(gate, res.gated...)
		if res.missing > 0 {
			break
		}
		if w.sloEvery == 0 {
			readUs = append(readUs, micros(p.read(f.tags)))
		} else {
			doneTags = append(doneTags, f.done...)
			if (fi+1)%w.sloEvery == 0 {
				readUs = append(readUs, micros(p.read(doneTags)))
				doneTags = doneTags[:0]
			}
		}
		clk.tick(f.samples)
		if fi >= prefix && clk.elapsed() >= budget {
			break
		}
	}
	clk.pause()
	m := p.eng.Metrics()
	timed := c
	timed.samples -= warmCounts.samples
	timed.accepted -= warmCounts.accepted
	timed.expected -= warmCounts.expected
	timedSolves := m.Solves - solvesAt
	extraSolves := int(m.Solves) - c.expected
	if extraSolves > 0 {
		c.extra += extraSolves
	}

	// Correctness: the Eq. 17 set-up and the offline re-solve of the gated
	// estimates.
	calErr := p.cal.Center.Sub(antennaMount).Sub(antennaOffset).Norm()
	offErr := math.Abs(rf.WrapPhaseSigned(p.cal.Offset - (readerPhase + tagPhase)))
	calOK := calErr < calToleranceM && offErr < 0.15
	gr, err := checkGate(g, w, lambda, p.cal.Offset, gate)
	if err != nil {
		return nil, err
	}
	r.correct = calOK && gr.mismatches == 0 && c.missing == 0 && c.extra == 0
	r.attempted = c.samples + c.expected
	r.failed = (c.samples - c.accepted) + int(m.DroppedAge) + int(m.SubDropped) +
		int(m.Coalesced) + c.failedSolves + c.missing + c.extra

	frames := len(frameMs)
	r.note("calibration: phase center %.4f,%.4f,%.4f m (injected displacement recovered within %.2f mm, limit %.0f mm), offset error %.4f rad: %s",
		p.cal.Center.X, p.cal.Center.Y, p.cal.Center.Z, calErr*1e3, calToleranceM*1e3, offErr, okString(calOK))
	r.note("gate: %d estimates re-solved offline (%d bit-identical, worst slide deviation %.3g of its bound), %d mismatches: %s",
		gr.checked, gr.exact, gr.worst, gr.mismatches, okString(gr.mismatches == 0))
	if gr.first != "" {
		r.note("gate: first mismatch: %s", gr.first)
	}
	if c.firstErr != nil {
		r.note("first failed solve: %v", c.firstErr)
	}
	r.note("timed: %d frames, %d samples attempted, %d accepted, %d dropped, %d rejected, %d age-evicted; %.3f s active",
		frames, timed.samples, timed.accepted, timed.samples-timed.accepted, m.Rejected, m.DroppedAge, clk.wall.Seconds())
	r.note("solves: %d attempted in the timed phase, %d failed in the run; coalesced %d (must be 0); subscriber drops %d; estimates missing %d, extra %d",
		timedSolves, m.SolveErrors, m.Coalesced, m.SubDropped, c.missing, c.extra)
	r.note("set-up: %d fresh set-ups, %d warm-up frames each; accuracy and state over the first %d timed frames (%d estimates)",
		o.setups, len(warm), min(prefix, frames), len(posErr))

	if !o.trace {
		r.add("setup_s", median(setupS), "s")
		r.add("frame_p50_ms", median(frameMs), "ms")
		r.add("samples_per_s", median(clk.rate), "1/s")
		r.add("cpu_us_per_sample", median(clk.cpuPer), "us")
		r.add("pos_err_p50_cm", percentile(posErr, 50), "cm")
		r.add("pos_err_p90_cm", percentile(posErr, 90), "cm")
		r.add("state_mb", stateMB, "MB")
		r.note("frame_p50_ms over %d frames; read p50 %.3f us over %d reads; samples_per_s and cpu_us_per_sample over %d windows of %v (whole phase: %.0f samples/s, %.4f us CPU per accepted sample)",
			frames, median(readUs), len(readUs), len(clk.rate), windowLen, float64(timed.samples)/clk.wall.Seconds(),
			float64(clk.cpu.Nanoseconds())/1e3/float64(max(timed.accepted, 1)))
		return r, nil
	}
	if w.sloEvery == 0 {
		// The conveyor read mix has no SLO read; probe it after the timed
		// phase so the layer is measured on every workload.
		for i := 0; i < 64; i++ {
			p.sloRead()
		}
	}
	rebuilds, sessSolves := tr.rebuilds()
	rebuildRatio := 1.0 // a batch solve rebuilds its system on every call
	if w.incremental {
		rebuildRatio = float64(rebuilds-rebuildsAt) / float64(max(sessSolves-sessSolvesAt, 1))
	}
	n := float64(max(tr.samples, 1))
	r.add("wire.decode_ns_per_sample", tr.decodeNs/n, "ns")
	r.add("stream.ingest_ns_per_sample", tr.ingestNs/n, "ns")
	r.add("core.solve_us_p50", median(tr.solveUs), "us")
	r.add("core.solve_cpu_share", tr.solveTotal.Seconds()/clk.cpu.Seconds(), "ratio")
	r.add("core.solves_per_ksample", 1000*float64(timedSolves)/float64(max(timed.samples, 1)), "1/ksample")
	r.add("core.rebuild_ratio", rebuildRatio, "ratio")
	r.add("stream.queue_wait_us_p50", median(tr.queueUs), "us")
	r.add("stream.publish_us_p50", median(tr.publishUs), "us")
	r.add("obs.slo_read_us_p50", median(tr.slo), "us")
	r.add("stream.latest_ns_p50", median(tr.latest), "ns")
	r.add("calib.estimate_ms", median(calMs), "ms")
	r.add("stream.warmup_ms", median(warmMs), "ms")
	r.add("sim.generate_s", (g.genDur + sweepDur).Seconds(), "s")
	r.add("frame_unattributed_us_p50", median(tr.unattributedUs), "us")
	r.note("traced: frame_p99_ms %.4f over %d frames (diagnosis only); %d solves timed, %d unmatched; %d SLO reads, %d Latest calls",
		percentile(frameMs, 99), frames, len(tr.solveUs), tr.unmatched, len(tr.slo), len(tr.latest))
	return r, nil
}

// calToleranceM is how close the Eq. 17 set-up must put the phase center:
// well inside the 2.8 cm displacement it has to recover.
const calToleranceM = 0.01

func okString(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAILED"
}

// warmupFrames generates the set-up's warm-up input: frames until every
// slot has a tag in view and every tag in view at that moment has published
// its first estimate.
func warmupFrames(g *generator) ([]frame, error) {
	var out []frame
	var cohort map[string]bool
	for {
		startTick := g.tick
		f, err := g.next()
		if err != nil {
			return nil, err
		}
		out = append(out, f)
		if cohort == nil && startTick >= g.w.rampTicks() {
			cohort = make(map[string]bool)
			for _, t := range f.tags {
				cohort[t] = true
			}
		}
		if cohort == nil {
			continue
		}
		for _, e := range f.expects {
			delete(cohort, e.tag)
		}
		if len(cohort) == 0 {
			return out, nil
		}
	}
}

func genChunk(g *generator, n int) ([]frame, error) {
	out := make([]frame, n)
	for i := range out {
		f, err := g.next()
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the interpolated p-th percentile, NaN for no data.
func percentile(xs []float64, p float64) float64 {
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return math.NaN()
	}
	return v
}
