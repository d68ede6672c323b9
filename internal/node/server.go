package node

import (
	"context"
	"errors"
	"fmt"
	"math"
	"mime"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/health"
	"github.com/rfid-lion/lion/internal/obs"
	"github.com/rfid-lion/lion/internal/recal"
	"github.com/rfid-lion/lion/internal/stream"
	"github.com/rfid-lion/lion/internal/wire"
)

// MaxBody bounds one body on the node↔router protocol: a POST /v1/samples
// request at a node or at the router, and a node answer the router reads
// (64 MiB).
const MaxBody = 64 << 20

// Run builds a node from liond's command-line arguments and serves it on ln
// until ctx is cancelled, then drains (see serve). A nil ln listens on -addr.
// log receives the node's structured lines; nil discards them.
func Run(ctx context.Context, ln net.Listener, args []string, log *obs.Logger) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	cfg.log = log
	eng, mon, ctrl, err := buildPipeline(cfg)
	if err != nil {
		return err
	}
	if ln == nil {
		if ln, err = net.Listen("tcp", cfg.addr); err != nil {
			ctrl.Close()
			eng.Close(context.Background())
			return err
		}
	}
	log.Info("listening",
		"addr", ln.Addr().String(),
		"window", cfg.cfg.WindowSize,
		"every", cfg.cfg.SolveEvery,
		"workers", cfg.cfg.Workers,
		"monitor", mon != nil,
		"calibrations", len(cfg.health.Calibrations),
		"recal", ctrl != nil)
	return serve(ctx, ln, eng, mon, ctrl, cfg)
}

// buildPipeline assembles the shared registry, the health monitor (unless
// disabled), the stream engine wired to both, and (with -recal) the
// closed-loop recalibration controller subscribed to the monitor's alert
// transitions. A configured calibration also becomes the engine's initial
// antenna profile, so solves run on offset-corrected phases from the start.
func buildPipeline(cfg *config) (*stream.Engine, *health.Monitor, *recal.Controller, error) {
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	var mon *health.Monitor
	if cfg.monitor {
		cfg.health.Registry = reg
		cfg.health.Logger = cfg.log
		var err error
		if mon, err = health.New(cfg.health); err != nil {
			return nil, nil, nil, err
		}
	}
	if len(cfg.health.Calibrations) > 0 {
		cal := cfg.health.Calibrations[0]
		cfg.cfg.Profile = &stream.Profile{
			Antenna: cal.Antenna, Center: cal.Center, Offset: cal.Offset, Lambda: cal.Lambda,
		}
	}
	cfg.cfg.Registry = reg
	cfg.cfg.Monitor = mon
	// The span log is always wired in: recording is gated per batch by the
	// trace context, so an untraced steady state pays nothing for it, and a
	// router's traced wire frames light it up without any local flag.
	cfg.cfg.Spans = obs.NewSpanLog("liond", 0)
	eng, err := stream.New(cfg.cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	var ctrl *recal.Controller
	if cfg.recal {
		ctrl, err = recal.New(recal.Config{
			Engine:       eng,
			Margin:       cfg.recalMargin,
			MinSamples:   cfg.recalMin,
			Intervals:    cfg.intervals,
			PositiveSide: cfg.positiveSide,
			Registry:     reg,
			Logger:       cfg.log,
		})
		if err != nil {
			eng.Close(context.Background())
			return nil, nil, nil, err
		}
		mon.SetOnTransition(ctrl.OnTransition)
	}
	return eng, mon, ctrl, nil
}

// serve runs the HTTP server on ln until ctx is cancelled, then shuts down
// gracefully: readiness flips to draining first (load balancers stop routing
// here), the listener closes so no new samples arrive, and the engine drains
// every in-flight and dirty window before serve returns.
func serve(ctx context.Context, ln net.Listener, eng *stream.Engine, mon *health.Monitor, ctrl *recal.Controller, cfg *config) error {
	s := newServer(eng, mon, ctrl, cfg)
	drain := cfg.drain
	srv := &http.Server{
		Handler:           s.routes(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		ctrl.Close()
		eng.Close(context.Background())
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	// Stop the recal worker before draining so no profile swap lands in the
	// middle of the final solves.
	ctrl.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		cfg.log.Warn("http shutdown", "err", err)
	}
	if err := eng.Close(shutCtx); err != nil && !errors.Is(err, stream.ErrClosed) {
		return fmt.Errorf("drain: %w", err)
	}
	m := eng.Metrics()
	cfg.log.Info("drained",
		"ingested", m.Ingested,
		"solves", m.Solves,
		"solve_errors", m.SolveErrors,
		"dropped", m.DroppedOverflow+m.DroppedAge)
	return nil
}

type server struct {
	eng      *stream.Engine
	mon      *health.Monitor   // nil when -monitor=false
	ctrl     *recal.Controller // nil without -recal
	antenna  string            // the engine's antenna id (alert scope, drift status)
	start    time.Time
	draining atomic.Bool

	// Pipeline tracing: the engine's span ring and the local 1-in-N sampler
	// (nil without -trace-sample).
	spans        *obs.SpanLog
	sampler      *obs.Sampler
	ingestDecode *obs.Histogram
	ingestReq    *obs.Histogram
}

func newServer(eng *stream.Engine, mon *health.Monitor, ctrl *recal.Controller, cfg *config) *server {
	s := &server{
		eng: eng, mon: mon, ctrl: ctrl, antenna: cfg.cfg.Antenna, start: time.Now(),
		spans: cfg.cfg.Spans,
	}
	if cfg.traceSample > 0 {
		s.sampler = obs.NewSampler(cfg.traceSample, uint64(s.start.UnixNano()))
	}
	s.ingestDecode = eng.Registry().Histogram("lion_ingest_decode_seconds",
		"Time decoding one POST /v1/samples body, wire or NDJSON.", obs.DefBuckets)
	s.ingestReq = eng.Registry().Histogram("lion_http_ingest_seconds",
		"Wall time of one POST /v1/samples request, receive to response.", obs.DefBuckets)
	eng.Registry().GaugeFunc("lion_uptime_seconds", "Seconds since the daemon started.", func() float64 {
		return time.Since(s.start).Seconds()
	})
	return s
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/samples", s.handleIngest)
	mux.HandleFunc("GET /v1/tags", s.handleTags)
	mux.HandleFunc("GET /v1/tags/{id}/estimate", s.handleEstimate)
	mux.HandleFunc("GET /v1/tags/{id}/explain", s.handleExplain)
	mux.HandleFunc("GET /v1/alerts", s.handleAlerts)
	mux.HandleFunc("GET /v1/slo", s.handleSLO)
	mux.HandleFunc("GET /v1/recal/history", s.handleRecalHistory)
	mux.HandleFunc("POST /v1/recal/trigger", s.handleRecalTrigger)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.Handle("GET /metrics", s.eng.Registry().Handler())
	mux.HandleFunc("GET /debug/flight/{id}", s.handleFlight)
	mux.Handle("GET /debug/pipespans", s.spans)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// DecodeIngest reads one POST /v1/samples body, at a node or at the router,
// bounded by MaxBody. A wire Content-Type (parameters and letter case
// ignored) decodes frames and returns a trace extension, if any, with the
// samples. Any other type, or none, decodes NDJSON: curl-style clients send
// arbitrary types (`--data-binary` defaults to
// application/x-www-form-urlencoded) and have always been read as NDJSON.
func DecodeIngest(w http.ResponseWriter, r *http.Request) ([]dataset.TaggedSample, *wire.Ext, error) {
	body := http.MaxBytesReader(w, r.Body, MaxBody)
	if mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type")); err == nil && mt == wire.ContentType {
		return wire.DecodeIngestExt(body)
	}
	samples, err := dataset.DecodeIngest(body)
	return samples, nil, err
}

func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	recv := time.Now()
	// The full request wall time — the server-side twin of a load
	// generator's client-observed ingest latency (error paths included,
	// since the client's clock cannot tell them apart).
	defer func() { s.ingestReq.Observe(time.Since(recv).Seconds()) }()
	samples, ext, err := DecodeIngest(w, r)
	decodeTook := time.Since(recv)
	if err != nil {
		obs.WriteError(w, http.StatusBadRequest, err)
		return
	}
	// Trace context and staleness origin: a wire trace extension from the
	// router wins (its receive clock started this batch's staleness budget);
	// otherwise the local sampler decides and the origin is our own accept.
	var tc obs.TraceContext
	origin := recv
	if ext != nil {
		tc = obs.TraceContext{ID: ext.TraceID, Sampled: true}
		origin = time.Unix(0, ext.RouterRecvUnixNano)
	} else if s.sampler != nil {
		tc = s.sampler.Next()
	}
	s.ingestDecode.ObserveExemplar(decodeTook.Seconds(), tc)
	s.spans.Record(tc, "ingest_decode", "", recv, decodeTook)
	// The whole batch enters the engine under one lock acquisition; bad
	// samples (empty tag, non-finite floats) are counted and skipped so one
	// cannot poison the rest of the batch.
	batch := make([]stream.Tagged, len(samples))
	for i, ts := range samples {
		batch[i] = stream.Tagged{Tag: ts.Tag, Sample: stream.FromSim(ts.Sample())}
	}
	enq := time.Now()
	accepted, dropped, err := s.eng.IngestTaggedTraced(batch, tc, origin)
	if err != nil {
		obs.WriteError(w, http.StatusServiceUnavailable, err)
		return
	}
	s.spans.Record(tc, "engine_enqueue", "", enq, time.Since(enq))
	resp := map[string]any{"accepted": accepted, "dropped": dropped}
	if tc.Sampled {
		resp["trace_id"] = obs.TraceIDString(tc.ID)
	}
	obs.WriteJSON(w, http.StatusOK, resp)
}

func (s *server) handleTags(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, map[string][]string{"tags": s.eng.Tags()})
}

// estimateJSON is the wire form of one estimate. Unknown coordinates (NaN)
// marshal as null.
type estimateJSON struct {
	Tag       string   `json:"tag"`
	Seq       uint64   `json:"seq"`
	Window    int      `json:"window"`
	FromS     float64  `json:"from_s"`
	ToS       float64  `json:"to_s"`
	X         *float64 `json:"x_m"`
	Y         *float64 `json:"y_m"`
	Z         *float64 `json:"z_m"`
	RefDist   *float64 `json:"ref_distance_m,omitempty"`
	RMSResid  *float64 `json:"rms_residual,omitempty"`
	LatencyMS float64  `json:"solve_latency_ms"`
	// ProfileVersion names the antenna profile that corrected this window
	// (0 = no profile), so operators can tell pre- from post-swap estimates.
	ProfileVersion uint64 `json:"profile_version,omitempty"`
	Error          string `json:"error,omitempty"`
}

func fnum(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// latest returns the tag's newest estimate, or answers 404 and false.
func (s *server) latest(w http.ResponseWriter, r *http.Request) (stream.Estimate, bool) {
	tag := r.PathValue("id")
	est, ok := s.eng.Latest(tag)
	if !ok {
		obs.WriteError(w, http.StatusNotFound, fmt.Errorf("no estimate for tag %q", tag))
	}
	return est, ok
}

func toEstimateJSON(est stream.Estimate) estimateJSON {
	out := estimateJSON{
		Tag:            est.Tag,
		Seq:            est.Seq,
		Window:         est.Window,
		FromS:          est.From.Seconds(),
		ToS:            est.To.Seconds(),
		LatencyMS:      float64(est.Latency) / float64(time.Millisecond),
		ProfileVersion: est.ProfileVersion,
	}
	if est.Err != nil {
		out.Error = est.Err.Error()
	}
	if sol := est.Solution; sol != nil {
		out.X = fnum(sol.Position.X)
		out.Y = fnum(sol.Position.Y)
		out.Z = fnum(sol.Position.Z)
		out.RefDist = fnum(sol.RefDistance)
		out.RMSResid = fnum(sol.RMSResidual)
	}
	return out
}

func (s *server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if est, ok := s.latest(w, r); ok {
		obs.WriteJSON(w, http.StatusOK, toEstimateJSON(est))
	}
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}
