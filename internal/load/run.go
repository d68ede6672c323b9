package load

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/wire"
)

// Config parameterises one load run.
type Config struct {
	// Target is the base URL of a liond node or lionroute router.
	Target string
	// Scenario is the workload; required.
	Scenario *Scenario
	// Rate is the peak samples/sec (phase RateScale multiplies it).
	// Zero uses the scenario default.
	Rate float64
	// Duration is the total run length. Zero uses the scenario default.
	Duration time.Duration
	// Batch is the samples per POST. Zero means 64.
	Batch int
	// Workers is the sender goroutine count. Zero means 2.
	Workers int
	// Codec encodes ingest bodies. Nil means the binary wire codec.
	Codec dataset.Codec
	// ScrapeEvery is the /v1/slo poll interval. Zero means 1s.
	ScrapeEvery time.Duration
	// Settle is how long to wait after the last send before the final
	// scrape, letting server queues drain into the histograms. Zero means
	// 500ms.
	Settle time.Duration
	// Client is the HTTP client for both senders and scraper. Nil builds
	// one with a per-request timeout.
	Client *http.Client
	// NewSink overrides the sink per worker (tests). Nil posts to Target.
	NewSink func(worker int) Sink
	// Seed makes the fleet reproducible. Zero means 1.
	Seed int64
}

// slot is one precomputed schedule entry: a batch due at start+Due during
// phase Phase.
type slot struct {
	Due   time.Duration
	Phase int
}

// Result is everything one run measured.
type Result struct {
	Scenario  *Scenario
	Target    string
	CodecName string
	Rate      float64
	Duration  time.Duration
	Batch     int
	Workers   int
	Start     time.Time
	Elapsed   time.Duration
	Recorder  *Recorder
	Scrape    ScrapeSummary
}

// AchievedRate returns the samples/sec the run actually delivered.
func (r *Result) AchievedRate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	t := r.Recorder.Total()
	return float64(t.Samples) / r.Elapsed.Seconds()
}

// buildSchedule lays out every batch send of the run on the ideal clock:
// phase by phase, one slot every batch/rate seconds. The schedule is fixed
// before the first send, which is what makes the run open-loop.
func buildSchedule(phases []Phase, rate float64, total time.Duration, batch int) []slot {
	var slots []slot
	cursor := time.Duration(0)
	for pi, p := range phases {
		dur := time.Duration(p.Frac * float64(total))
		r := rate * p.RateScale
		if r > 0 {
			interval := time.Duration(float64(batch) / r * float64(time.Second))
			if interval <= 0 {
				interval = time.Microsecond
			}
			for off := time.Duration(0); off < dur; off += interval {
				slots = append(slots, slot{Due: cursor + off, Phase: pi})
			}
		}
		cursor += dur
	}
	return slots
}

// worker owns one partition of the fleet and one disjoint subset of the
// schedule. Everything it touches per step is preallocated.
type worker struct {
	fleet *Fleet
	sink  Sink
	rec   *Recorder
	slots []slot
	buf   []dataset.TaggedSample
	start time.Time
}

// step executes one schedule slot: wait for the ideal clock, fill, send,
// and record latency from the scheduled time. Allocation-steady — the only
// allocations are whatever the sink's transport makes.
func (w *worker) step(sl slot) {
	due := w.start.Add(sl.Due)
	wait := time.Until(due)
	if wait > 0 {
		time.Sleep(wait)
	}
	n := w.fleet.Fill(w.buf, sl.Due.Seconds())
	accepted, dropped, err := w.sink.Send(w.buf[:n])
	latency := time.Since(due)
	w.rec.Record(sl.Phase, latency, sl.Due, n, accepted, dropped, err != nil, wait < 0)
}

func (w *worker) run(ctx context.Context) {
	for _, sl := range w.slots {
		select {
		case <-ctx.Done():
			return
		default:
		}
		w.step(sl)
	}
}

// Run executes one load run to completion (or ctx cancellation) and returns
// the merged measurements. The scraper polls throughout and once more after
// the settle period, so the result always carries the post-drain server view.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Scenario == nil {
		return nil, errors.New("load: config needs a scenario")
	}
	if err := cfg.Scenario.Validate(); err != nil {
		return nil, err
	}
	rate := cfg.Rate
	if rate <= 0 {
		rate = cfg.Scenario.DefaultRate
	}
	total := cfg.Duration
	if total <= 0 {
		total = cfg.Scenario.DefaultDuration
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = 64
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 2
	}
	codec := cfg.Codec
	if codec == nil {
		codec = wire.Codec{}
	}
	settle := cfg.Settle
	if settle <= 0 {
		settle = 500 * time.Millisecond
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Target == "" && cfg.NewSink == nil {
		return nil, errors.New("load: config needs a target or a sink factory")
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}

	fleet, err := BuildFleet(cfg.Scenario, seed)
	if err != nil {
		return nil, err
	}
	schedule := buildSchedule(cfg.Scenario.Phases, rate, total, batch)
	if len(schedule) == 0 {
		return nil, fmt.Errorf("load: empty schedule (rate %.0f, duration %s)", rate, total)
	}
	parts := fleet.Partition(workers)
	ws := make([]*worker, workers)
	for i := range ws {
		var sink Sink
		if cfg.NewSink != nil {
			sink = cfg.NewSink(i)
		} else {
			sink = NewHTTPSink(client, cfg.Target, codec)
		}
		ws[i] = &worker{
			fleet: parts[i],
			sink:  sink,
			rec:   NewRecorder(cfg.Scenario.Phases, total),
			buf:   make([]dataset.TaggedSample, batch),
		}
	}
	for i, sl := range schedule {
		w := ws[i%workers]
		w.slots = append(w.slots, sl)
	}

	var scraper *Scraper
	scrapeCtx, stopScrape := context.WithCancel(ctx)
	var scrapeDone chan struct{}
	if cfg.Target != "" {
		scraper = NewScraper(client, cfg.Target)
		scrapeDone = make(chan struct{})
		go func() {
			defer close(scrapeDone)
			scraper.Run(scrapeCtx, cfg.ScrapeEvery)
		}()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range ws {
		w.start = start
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(ctx)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if scraper != nil {
		// Let server queues drain so staleness and ingest histograms cover
		// the whole run, then take the final scrape.
		select {
		case <-time.After(settle):
		case <-ctx.Done():
		}
	}
	stopScrape()
	if scrapeDone != nil {
		<-scrapeDone
	}

	rec := ws[0].rec
	for _, w := range ws[1:] {
		rec.Merge(w.rec)
	}
	res := &Result{
		Scenario:  cfg.Scenario,
		Target:    cfg.Target,
		CodecName: codec.Name(),
		Rate:      rate,
		Duration:  total,
		Batch:     batch,
		Workers:   workers,
		Start:     start,
		Elapsed:   elapsed,
		Recorder:  rec,
	}
	if scraper != nil {
		res.Scrape = scraper.Summary()
	} else {
		res.Scrape = ScrapeSummary{Dims: map[string]*DimSummary{}}
	}
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("load: run interrupted: %w", err)
	}
	return res, nil
}
