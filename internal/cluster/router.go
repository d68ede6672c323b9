package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/node"
	"github.com/rfid-lion/lion/internal/obs"
	"github.com/rfid-lion/lion/internal/wire"
)

// ShardState is a shard's traffic eligibility as seen by the router.
type ShardState int32

const (
	// ShardHealthy receives ingest and queries.
	ShardHealthy ShardState = iota
	// ShardDraining is alive but leaving (or degraded by a critical alert):
	// queries are still served from it, new samples are rejected.
	ShardDraining
	// ShardEjected is unreachable: ingest is rejected and queries fail fast
	// until /readyz recovers and the health checker readmits it.
	ShardEjected
)

// String names the state for logs and status documents.
func (s ShardState) String() string {
	switch s {
	case ShardHealthy:
		return "healthy"
	case ShardDraining:
		return "draining"
	case ShardEjected:
		return "ejected"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// ErrClosed is returned by Ingest after Close.
var ErrClosed = errors.New("cluster: router closed")

// Options tune a Router beyond the cluster config. The forward encoding is
// not among them: the router always forwards binary wire frames, which
// every liond decodes.
type Options struct {
	// Registry receives the lion_cluster_* metrics; nil means a private one.
	Registry *obs.Registry
	// Client performs forward and query requests; nil builds one with
	// keep-alive connections per shard. Health probes always use a separate
	// short-timeout client.
	Client *http.Client
	// Logger receives state transitions; nil silences them.
	Logger *obs.Logger
	// Sampler decides which ingest batches get a pipeline trace; nil never
	// samples, keeping the ingest path trace-free at zero cost.
	Sampler *obs.Sampler
	// Spans receives the router's pipeline spans (ingest decode, queue
	// wait, forward) for sampled batches; nil disables span retention.
	Spans *obs.SpanLog
}

// Router owns the ring, the per-shard forward queues, and the health
// checker. Create with New, serve its Routes, stop with Close.
type Router struct {
	cfg    Config
	ring   *Ring
	shards []*shard
	reg    *obs.Registry
	client *http.Client
	probe  *http.Client
	log    *obs.Logger

	sampler *obs.Sampler
	spans   *obs.SpanLog

	forwarded      *obs.Counter
	forwardErrors  *obs.Counter
	forwardLatency *obs.Histogram
	ingestDecode   *obs.Histogram
	ingestReq      *obs.Histogram
	queueWait      *obs.Histogram
	rejQueueFull   *obs.Counter
	rejDraining    *obs.Counter
	rejDown        *obs.Counter
	ejections      *obs.Counter
	readmissions   *obs.Counter

	closed atomic.Bool
	stop   chan struct{}
	// ctx spans the router's lifetime and parents every forward request;
	// cancel aborts in-flight POSTs when a Close deadline expires, so a
	// stalled shard cannot wedge a forwarder past the caller's patience.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// queuedBatch is one owner-partitioned sample group waiting on a shard's
// forward queue, carrying the clocks and trace context the observability
// layer needs: enqueued feeds the queue-wait histogram, recv is the router
// receive wall clock (the cluster staleness zero point, forwarded on the
// wire), and tc is the pipeline trace decision for this batch.
type queuedBatch struct {
	samples  []dataset.TaggedSample
	enqueued time.Time
	recv     time.Time
	tc       obs.TraceContext
}

// shard is the router-side state of one liond instance.
type shard struct {
	id   string
	base string // URL base without trailing slash

	queue  chan queuedBatch
	queued atomic.Int64 // samples currently queued (gauge backing)
	state  atomic.Int32 // ShardState

	failures int // consecutive probe failures; health goroutine only

	queueGauge *obs.Gauge
	stateGauge *obs.Gauge
}

func (s *shard) State() ShardState { return ShardState(s.state.Load()) }

func (s *shard) setState(st ShardState) {
	s.state.Store(int32(st))
	s.stateGauge.Set(float64(st))
}

// New validates the config, builds the ring, registers metrics, and starts
// the per-shard forwarders plus (unless disabled) the health checker.
func New(cfg Config, opts Options) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	ids := make([]string, len(cfg.Shards))
	for i, s := range cfg.Shards {
		ids[i] = s.ID
	}
	ring, err := NewRing(ids, DefaultReplicas)
	if err != nil {
		return nil, err
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.forwardTimeout}
	}
	ctx, cancel := context.WithCancel(context.Background())
	rt := &Router{
		cfg:     cfg,
		ring:    ring,
		reg:     reg,
		client:  client,
		probe:   &http.Client{Timeout: probeTimeout},
		log:     opts.Logger,
		sampler: opts.Sampler,
		spans:   opts.Spans,
		stop:    make(chan struct{}),
		ctx:     ctx,
		cancel:  cancel,

		forwarded: reg.Counter("lion_cluster_forwarded_samples_total",
			"Samples successfully forwarded to a shard."),
		forwardErrors: reg.Counter("lion_cluster_forward_errors_total",
			"Samples dropped because a forward POST kept failing."),
		forwardLatency: reg.Histogram("lion_cluster_forward_latency_seconds",
			"Wall time of one successful forward POST.", obs.DefBuckets),
		ingestDecode: reg.Histogram("lion_cluster_ingest_decode_seconds",
			"Wall time to decode one router ingest request body.", obs.DefBuckets),
		ingestReq: reg.Histogram("lion_cluster_http_ingest_seconds",
			"Wall time of one POST /v1/samples at the router, receive to response.", obs.DefBuckets),
		queueWait: reg.Histogram("lion_cluster_queue_wait_seconds",
			"Wait of a batch on a shard's forward queue before its POST began.", obs.DefBuckets),
		ejections: reg.Counter("lion_cluster_ejections_total",
			"Shards ejected after consecutive failed health probes."),
		readmissions: reg.Counter("lion_cluster_readmissions_total",
			"Ejected shards readmitted after /readyz recovered."),
	}
	rejected := reg.CounterVec("lion_cluster_rejected_total",
		"Samples rejected at the router, by reason.", "reason")
	rt.rejQueueFull = rejected.With("queue_full")
	rt.rejDraining = rejected.With("draining")
	rt.rejDown = rejected.With("down")
	reg.GaugeFunc("lion_cluster_shards", "Shards in the configured ring.", func() float64 {
		return float64(len(cfg.Shards))
	})
	queueGauge := reg.GaugeVec("lion_cluster_queue_samples",
		"Samples waiting in a shard's forward queue.", "shard")
	stateGauge := reg.GaugeVec("lion_cluster_shard_state",
		"Shard state: 0 healthy, 1 draining (query-only), 2 ejected.", "shard")

	// Queue capacity counts batches; the sample bound is enforced on the
	// atomic counter, so the channel just needs room for a realistic number
	// of distinct pending batches.
	depth := max(16, cfg.queueSamples/64)
	for _, sc := range cfg.Shards {
		s := &shard{
			id:    sc.ID,
			base:  strings.TrimRight(sc.URL, "/"),
			queue: make(chan queuedBatch, depth),
			// metriclint:bounded shard ids come from the static cluster config
			queueGauge: queueGauge.With(sc.ID),
			// metriclint:bounded shard ids come from the static cluster config
			stateGauge: stateGauge.With(sc.ID),
		}
		s.setState(ShardHealthy)
		rt.shards = append(rt.shards, s)
	}
	for _, s := range rt.shards {
		rt.wg.Add(1)
		go rt.forwardLoop(s)
	}
	if cfg.healthInterval > 0 {
		rt.wg.Add(1)
		go rt.healthLoop(cfg.healthInterval)
	}
	return rt, nil
}

// Registry returns the metrics registry backing the router's counters.
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// Owner returns the shard id owning the tag — exposed for tests and the
// cluster status document.
func (rt *Router) Owner(tag string) string { return rt.shards[rt.ring.Owner(tag)].id }

// IngestResult reports what happened to one decoded ingest batch. TraceID is
// the hex pipeline trace id when the batch was sampled, empty otherwise —
// clients follow it through GET /v1/trace/{id}.
type IngestResult struct {
	Accepted int    `json:"accepted"`
	Rejected int    `json:"rejected"`
	TraceID  string `json:"trace_id,omitempty"`
}

// Ingest partitions samples by ring owner and enqueues each group on
// its shard's forward queue. Samples for draining or ejected shards, and
// groups that would overflow a shard's bounded queue, are rejected whole and
// counted — the router never blocks an ingest request on a slow shard.
//
// tc is the batch's pipeline trace decision and recv its receive wall clock;
// both travel with every enqueued group and, for sampled batches, onto the
// wire. A zero recv means now. An unsampled tc adds nothing to the hot path.
func (rt *Router) Ingest(samples []dataset.TaggedSample, tc obs.TraceContext, recv time.Time) (IngestResult, error) {
	var res IngestResult
	if rt.closed.Load() {
		return res, ErrClosed
	}
	if tc.Sampled {
		res.TraceID = obs.TraceIDString(tc.ID)
	}
	if len(samples) == 0 {
		return res, nil
	}
	now := time.Now()
	if recv.IsZero() {
		recv = now
	}
	groups := make([][]dataset.TaggedSample, len(rt.shards))
	for _, ts := range samples {
		owner := rt.ring.Owner(ts.Tag)
		groups[owner] = append(groups[owner], ts)
	}
	for i, group := range groups {
		if len(group) == 0 {
			continue
		}
		s := rt.shards[i]
		n := len(group)
		switch s.State() {
		case ShardDraining:
			rt.rejDraining.Add(uint64(n))
			res.Rejected += n
			continue
		case ShardEjected:
			rt.rejDown.Add(uint64(n))
			res.Rejected += n
			continue
		}
		if int(s.queued.Load())+n > rt.cfg.queueSamples {
			rt.rejQueueFull.Add(uint64(n))
			res.Rejected += n
			continue
		}
		select {
		case s.queue <- queuedBatch{samples: group, enqueued: now, recv: recv, tc: tc}:
			s.queueGauge.Set(float64(s.queued.Add(int64(n))))
			res.Accepted += n
		default:
			rt.rejQueueFull.Add(uint64(n))
			res.Rejected += n
		}
	}
	return res, nil
}

// forwardLoop drains one shard's queue, coalescing adjacent batches up to
// forwardBatchSamples per POST. It exits when the queue is closed and empty. A
// coalesced POST inherits the first sampled trace context among its batches
// (and that batch's receive clock); queue wait is measured from the oldest
// batch's enqueue to the start of the POST.
func (rt *Router) forwardLoop(s *shard) {
	defer rt.wg.Done()
	limit := forwardBatchSamples
	var batch []dataset.TaggedSample
	for first := range s.queue {
		batch = append(batch[:0], first.samples...)
		tc, recv := first.tc, first.recv
	coalesce:
		for len(batch) < limit {
			select {
			case next, ok := <-s.queue:
				if !ok {
					break coalesce
				}
				batch = append(batch, next.samples...)
				if !tc.Sampled && next.tc.Sampled {
					tc, recv = next.tc, next.recv
				}
			default:
				break coalesce
			}
		}
		wait := time.Since(first.enqueued)
		rt.queueWait.ObserveExemplar(wait.Seconds(), tc)
		rt.spans.Record(tc, "queue_wait", s.id, first.enqueued, wait)
		rt.post(s, batch, tc, recv)
		s.queueGauge.Set(float64(s.queued.Add(int64(-len(batch)))))
	}
}

// post forwards one batch, retrying a few times before dropping it. Order
// within the shard is preserved regardless: post returns only when the batch
// succeeded or was abandoned, and batches after a dropped one still arrive
// after it would have. The batch travels as wire frames; sampled batches
// carry the trace id and receive clock in the frames' trace extension.
func (rt *Router) post(s *shard, batch []dataset.TaggedSample, tc obs.TraceContext, recv time.Time) {
	var buf bytes.Buffer
	if err := wire.NewWriter(&buf, 0).WriteBatchExt(batch, rt.traceExt(tc, recv)); err != nil {
		// Unencodable batches cannot happen for validated ingest samples;
		// count and drop rather than wedging the queue.
		rt.forwardErrors.Add(uint64(len(batch)))
		rt.logf("forward encode failed", "shard", s.id, "err", err.Error())
		return
	}
	body := buf.Bytes()
	attempts := rt.cfg.forwardAttempts
	final := false
	for attempt := 1; ; attempt++ {
		begin := time.Now()
		err := rt.postOnce(s, body)
		if err == nil {
			took := time.Since(begin)
			rt.forwardLatency.ObserveExemplar(took.Seconds(), tc)
			rt.spans.Record(tc, "forward", s.id, begin, took)
			rt.forwarded.Add(uint64(len(batch)))
			return
		}
		if final || attempt >= attempts {
			rt.forwardErrors.Add(uint64(len(batch)))
			rt.logf("forward dropped batch", "shard", s.id, "samples", len(batch), "err", err.Error())
			return
		}
		select {
		case <-time.After(time.Duration(attempt) * 50 * time.Millisecond):
		case <-rt.stop:
			// Shutdown: skip the backoff for one immediate final try, then
			// give up — draining must not sit out the full retry schedule.
			final = true
		}
	}
}

// traceExt returns the wire extension to attach to one forward POST, or nil
// when the batch is unsampled. The nil path is allocation-free — it is taken
// for every batch in an untraced steady state.
func (rt *Router) traceExt(tc obs.TraceContext, recv time.Time) *wire.Ext {
	if !tc.Sampled {
		return nil
	}
	return &wire.Ext{TraceID: tc.ID, RouterRecvUnixNano: recv.UnixNano()}
}

// postOnce performs a single forward POST. The request carries a context
// bounded by both the per-attempt forward timeout and the router lifetime,
// so a stalled shard cannot hold a forwarder beyond either — even when the
// caller supplied an http.Client without its own timeout.
func (rt *Router) postOnce(s *shard, body []byte) error {
	ctx, cancel := context.WithTimeout(rt.ctx, rt.cfg.forwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/samples", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard %s: status %d", s.id, resp.StatusCode)
	}
	return nil
}

// healthLoop probes every shard's /readyz on a fixed period and drives the
// ejection/readmission state machine.
func (rt *Router) healthLoop(interval time.Duration) {
	defer rt.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
			for _, s := range rt.shards {
				rt.probeShard(s)
			}
		}
	}
}

// probeShard classifies one /readyz answer (a node.Readiness document):
//
//	200                        -> healthy (readmits an ejected shard)
//	503 node.StatusDraining    -> draining: alive, query-only, never ejected
//	503 node.StatusCriticalAlert -> treated as draining: the shard's solves
//	                              are suspect but its estimates stay queryable
//	anything else              -> failure; failThreshold consecutive ones eject
func (rt *Router) probeShard(s *shard) {
	ok, doc := rt.readyz(s)
	prev := s.State()
	switch {
	case ok:
		s.failures = 0
		if prev != ShardHealthy {
			if prev == ShardEjected {
				rt.readmissions.Inc()
			}
			s.setState(ShardHealthy)
			rt.logf("shard healthy", "shard", s.id, "was", prev.String())
		}
	case doc.Status == node.StatusDraining || doc.Status == node.StatusCriticalAlert:
		s.failures = 0
		if prev != ShardDraining {
			if prev == ShardEjected {
				rt.readmissions.Inc()
			}
			s.setState(ShardDraining)
			rt.logf("shard query-only", "shard", s.id, "status", doc.Status)
		}
	default:
		s.failures++
		if s.failures >= rt.cfg.failThreshold && prev != ShardEjected {
			s.setState(ShardEjected)
			rt.ejections.Inc()
			rt.logf("shard ejected", "shard", s.id, "failures", s.failures)
		}
	}
}

// readyz performs one probe. ok means HTTP 200. doc is the shard's
// self-reported readiness when the body was parseable, and the zero document
// for transport errors and foreign answers.
func (rt *Router) readyz(s *shard) (ok bool, doc node.Readiness) {
	resp, err := rt.probe.Get(s.base + "/readyz")
	if err != nil {
		return false, doc
	}
	defer resp.Body.Close()
	json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&doc)
	return resp.StatusCode == http.StatusOK, doc
}

// ShardStatus is one shard's row in the cluster status document.
type ShardStatus struct {
	ID      string `json:"id"`
	URL     string `json:"url"`
	State   string `json:"state"`
	Queued  int64  `json:"queued_samples"`
	MaxQ    int    `json:"queue_capacity_samples"`
	Healthy bool   `json:"accepts_ingest"`
}

// Status snapshots every shard for /v1/cluster and tests.
func (rt *Router) Status() []ShardStatus {
	out := make([]ShardStatus, len(rt.shards))
	for i, s := range rt.shards {
		st := s.State()
		out[i] = ShardStatus{
			ID:      s.id,
			URL:     s.base,
			State:   st.String(),
			Queued:  s.queued.Load(),
			MaxQ:    rt.cfg.queueSamples,
			Healthy: st == ShardHealthy,
		}
	}
	return out
}

// Ready reports whether at least one shard accepts ingest.
func (rt *Router) Ready() bool {
	for _, s := range rt.shards {
		if s.State() == ShardHealthy {
			return true
		}
	}
	return false
}

// Close stops ingest, halts the health checker, drains every forward queue
// to its shard, and waits for the forwarders (or ctx). Queued samples are
// flushed, not dropped: Close returning nil means every accepted sample was
// handed to its shard (or counted as a forward error).
func (rt *Router) Close(ctx context.Context) error {
	if rt.closed.Swap(true) {
		return ErrClosed
	}
	close(rt.stop)
	for _, s := range rt.shards {
		close(s.queue)
	}
	done := make(chan struct{})
	go func() {
		rt.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		rt.cancel()
		return nil
	case <-ctx.Done():
		// The caller is out of patience: abort in-flight forwards so the
		// forwarders exit promptly instead of hanging on a stalled shard.
		rt.cancel()
		return ctx.Err()
	}
}

// logf emits one structured log line when a logger is configured.
func (rt *Router) logf(msg string, kv ...any) {
	if rt.log != nil {
		rt.log.Info(msg, kv...)
	}
}
