// Command lionroute is the cluster front door: it consistent-hashes tag ids
// onto a static ring of liond shards, forwards ingest batches as binary wire
// frames over persistent connections with per-shard bounded queues, and
// routes queries to the owning shard.
//
// Example session (see README.md "Running a cluster"):
//
//	liond -addr :9001 & liond -addr :9002 &
//	cat > cluster.json <<'EOF'
//	{"shards": [
//	  {"id": "s1", "url": "http://127.0.0.1:9001"},
//	  {"id": "s2", "url": "http://127.0.0.1:9002"}
//	]}
//	EOF
//	lionroute -addr :8080 -config cluster.json &
//	lionsim -scenario linear -format wire |
//	    curl -s -H 'Content-Type: application/x-lion-wire' \
//	         --data-binary @- http://localhost:8080/v1/samples
//	curl -s http://localhost:8080/v1/tags/T1/estimate
//
// The router is package internal/cluster, whose Router.Routes lists the
// endpoints; `lionroute -h` lists the flags.
//
// On SIGINT/SIGTERM the router stops accepting ingest, flushes every
// shard's forward queue, and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/rfid-lion/lion/internal/cluster"
	"github.com/rfid-lion/lion/internal/obs"
)

// logx is the router's structured logger; one JSON object per line on stderr.
var logx = obs.NewLogger(os.Stderr)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lionroute:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lionroute", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		cfgPath     = fs.String("config", "", "cluster config JSON (required; see DESIGN.md section 12)")
		drain       = fs.Duration("drain", 10*time.Second, "shutdown queue-flush timeout")
		traceSample = fs.Int("trace-sample", 0,
			"pipeline tracing: sample 1 in N ingest requests end-to-end (0 = off); "+
				"sampled traces are served at /v1/trace/{id}")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cfgPath == "" {
		return errors.New("-config is required")
	}
	cfg, err := cluster.LoadConfig(*cfgPath)
	if err != nil {
		return err
	}
	if *traceSample < 0 {
		return fmt.Errorf("-trace-sample must be >= 0, got %d", *traceSample)
	}
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	opts := cluster.Options{
		Registry: reg,
		Logger:   logx,
	}
	if *traceSample > 0 {
		opts.Sampler = obs.NewSampler(*traceSample, uint64(time.Now().UnixNano()))
		opts.Spans = obs.NewSpanLog("lionroute", 0)
	}
	rt, err := cluster.New(*cfg, opts)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logx.Info("listening",
		"addr", ln.Addr().String(),
		"shards", len(cfg.Shards),
		"config", *cfgPath)

	srv := &http.Server{
		Handler:           rt.Routes(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		rt.Close(context.Background())
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logx.Warn("http shutdown", "err", err)
	}
	// Close flushes every queued batch to its shard before returning, so a
	// clean shutdown loses nothing that was acknowledged to a client.
	if err := rt.Close(shutCtx); err != nil && !errors.Is(err, cluster.ErrClosed) {
		return fmt.Errorf("flush queues: %w", err)
	}
	logx.Info("drained", "shards", len(cfg.Shards))
	return nil
}
