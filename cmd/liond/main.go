// Command liond is the real-time streaming localization daemon: it ingests
// timestamped phase reports over HTTP/JSON, maintains per-tag sliding
// windows, solves them continuously with the LION linear localizer, and
// serves the latest estimate per tag. The server is package internal/node,
// whose documentation lists the endpoints; `liond -h` lists the flags.
//
// Example session (see README.md for the full quickstart):
//
//	liond -addr :8077 &
//	lionsim -scenario linear -format ndjson |
//	    curl -s --data-binary @- http://localhost:8077/v1/samples
//	curl -s http://localhost:8077/v1/tags/T1/estimate
//
// On SIGINT/SIGTERM the daemon stops accepting requests, gives every dirty
// window a final solve, waits for in-flight solves to drain, and exits.
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/rfid-lion/lion/internal/node"
	"github.com/rfid-lion/lion/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := node.Run(ctx, nil, os.Args[1:], obs.NewLogger(os.Stderr))
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "liond:", err)
		os.Exit(1)
	}
}
