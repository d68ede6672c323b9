GO ?= go

## BENCH_BASELINE: the committed lionbench snapshot bench-guard compares
## against. Bump when a PR lands a new snapshot.
BENCH_BASELINE ?= BENCH_11.json

.PHONY: check fmt vet build test race bench bench-guard fuzz serve-smoke cluster-smoke recal-smoke load-smoke metriclint pipebench-test

## check: the CI gate — formatting, vet, build, metric-name linting, the
## full suite under the race detector (includes the 1k-job batch stress test,
## the stream concurrent-publisher stress test, and the serial/parallel
## equivalence tests), the multi-process cluster smoke, the closed-loop
## recalibration smoke, the load-harness smoke, the pipeline benchmark's own
## tests, and the benchmark regression guard.
check: fmt vet build metriclint race cluster-smoke recal-smoke load-smoke pipebench-test bench-guard

## metriclint: every registered metric name matches lion_[a-z_]+ and is
## documented in DESIGN.md section 9.
metriclint:
	$(GO) run ./tools/metriclint

## fmt: fail if any file needs gofmt.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; fi

## vet, build: also cover the pipebench module, which the root ./...
## patterns skip because it is its own module. -o /dev/null keeps the
## pipebench binary out of the source tree.
vet:
	$(GO) vet ./...
	cd pipebench && $(GO) vet .

build:
	$(GO) build ./...
	cd pipebench && $(GO) build -o /dev/null ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

## bench-guard: re-measure the lionbench micro-suite and fail on a >10%
## regression of the guarded hot paths (ns/op for the latency-critical
## benchmarks, allocs/op for all — a zero-alloc baseline fails on the first
## allocation) against the committed $(BENCH_BASELINE). The fresh snapshot
## goes to a per-run temporary file, removed on exit, so concurrent runs from
## different checkouts never read each other's measurements.
bench-guard:
	@snap="$$(mktemp -t lion-bench-current.XXXXXX)" || exit 1; \
	trap 'rm -f "$$snap"' EXIT; \
	echo "$(GO) run ./cmd/lionbench -json $$snap"; \
	$(GO) run ./cmd/lionbench -json "$$snap" && \
	$(GO) run ./tools/benchguard -baseline $(BENCH_BASELINE) -current "$$snap"

## serve-smoke: end-to-end liond check — start the daemon on a random port,
## push a replayed NDJSON trace over HTTP, assert a 200 estimate, and verify
## the graceful drain.
serve-smoke:
	$(GO) test ./internal/node -run TestServeSmoke -count=1 -v

## cluster-smoke: multi-process cluster check — build the real liond and
## lionroute binaries, run a router in front of two shard processes, ingest
## a binary wire stream, read an estimate back through the router, and
## verify every process drains cleanly on SIGTERM.
cluster-smoke:
	$(GO) test ./cmd/lionroute -run TestClusterSmoke -count=1 -v

## recal-smoke: closed-loop recalibration check — start liond with -recal and
## a deliberately stale calibration, push a drifted trace over HTTP, trigger a
## recalibration, and assert the antenna profile hot-swaps with audit log and
## metrics intact.
recal-smoke:
	$(GO) test ./internal/node -run TestRecalSmoke -count=1 -v

## load-smoke: load-harness check — run the 2-phase smoke scenario against a
## real liond process through the lionload CLI (open-loop paced fleet, SLO
## scrape, macro merge) and assert the scored verdict passes.
load-smoke:
	$(GO) test ./cmd/lionload -run TestLoadSmokeLiond -count=1 -v

## pipebench-test: the pipeline benchmark's tests (its own module, so the
## root `go test ./...` skips them), including the offline re-solve gate of
## every workload.
pipebench-test:
	cd pipebench && $(GO) test .

## fuzz: short fuzzing passes over the phase-wrap, preprocessing, ingest
## decoding (with its allocation bound), latency-histogram and
## calibration-solve invariants, the width-2 normal-equation kernel against
## the any-width row loop, and the stream engine's accounting under hostile
## samples (their seed corpora also run in every plain `go test`).
fuzz:
	$(GO) test -fuzz FuzzWrapPhase -fuzztime 30s ./internal/rf
	$(GO) test -run '^$$' -fuzz FuzzPreprocess -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzIngestDecode -fuzztime 30s ./internal/dataset
	$(GO) test -run '^$$' -fuzz FuzzWireDecode -fuzztime 30s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzHistRecord -fuzztime 30s ./internal/stats
	$(GO) test -run '^$$' -fuzz FuzzCalibEstimate -fuzztime 30s ./internal/calib
	$(GO) test -run '^$$' -fuzz FuzzNormalEq -fuzztime 30s ./internal/mat
	$(GO) test -run '^$$' -fuzz FuzzEngine -fuzztime 30s ./internal/stream
