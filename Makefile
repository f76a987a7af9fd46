GO ?= go

.PHONY: build test check lint race bench bench-smoke bench-compare metrics-smoke report-smoke service-smoke alert-smoke trace-smoke cli-smoke loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full hygiene gate: lint everything, run the whole suite with the
# race detector (the transport layer is heavily concurrent), re-run
# readahead's prefetch and concurrency tests twenty times under the
# race detector (the planner claims blocks under the cache mutex that
# its fetch goroutines and every reader share), re-run chio's
# concurrency tests twenty times under the race detector (every file
# type's Read, Write and Seek share one chio.Cursor, so a lapse in its
# locking races every backend at once), re-run pblast's scheduler
# tests ten times under the race detector (rank reuse, leave, crash,
# duplicate result, cancel, idle: an empty welcome alone fences a
# reused rank's stale mailbox, so a lapse in the worker's discard loop
# or the loop's requeue shows up only as a rare interleaving; affinity
# and overdue: pickTask chooses among pending tasks by holder and
# among overdue ones by age, so a wrong choice shows up only in some
# orders of results and readies), re-run pvfs's heartbeat and Close
# tests ten times under the race detector (a data server's heartbeat
# runs under a context that Close cancels, so a report in flight
# races the shutdown only in some interleavings), re-run
# the allocation guards of the search path, the FASTA reader and the
# fragment writer without the race detector (whose shadow memory
# inflates alloc counts, so each guard skips itself under -race), fuzz
# the data server's request handler, the PVFS wire frame decoders, the
# one-table seed scan, the message router, the fragment reader, the
# FASTA reader, the metrics text parser, the alert-rule grammar and
# blastd's JSON request body for a few seconds each, build and smoke the frozen
# benchmark module (root `go build ./...` does not compile it, so a
# rename that breaks it would otherwise go unnoticed), make sure every benchmark still at least
# runs, then smoke the live /metrics endpoint.
check: lint race
	$(GO) test -race -count=20 -run 'Prefetch|Concurrent|Demand' ./internal/readahead/
	$(GO) test -race -count=20 -run 'Concurrent' ./internal/chio/
	$(GO) test -race -count=10 -run 'RankReuses|Leave|Crash|Duplicate|Cancelled|Idle|Affinity|Overdue' ./internal/pblast/
	$(GO) test -race -count=10 -run 'Heartbeat|Close' ./internal/pvfs/
	$(GO) test -run TestSearchSubjectSteadyStateAllocs ./internal/blast/
	$(GO) test -run TestFastaReaderAllocsPerRecord ./internal/seq/
	$(GO) test -run TestFragmentWriterAppendAllocs ./internal/blastdb/
	$(GO) test -run '^$$' -fuzz FuzzDataServerDispatch -fuzztime 5s ./internal/pvfs/
	$(GO) test -run '^$$' -fuzz FuzzWireFrame -fuzztime 5s ./internal/pvfs/
	$(GO) test -run '^$$' -fuzz FuzzOneTableSeeds -fuzztime 5s ./internal/blast/
	$(GO) test -run '^$$' -fuzz FuzzRouterFrames -fuzztime 5s ./internal/mpi/
	$(GO) test -run '^$$' -fuzz FuzzOpenFragment -fuzztime 5s ./internal/blastdb/
	$(GO) test -run '^$$' -fuzz FuzzFastaReader -fuzztime 5s ./internal/seq/
	$(GO) test -run '^$$' -fuzz FuzzParseText -fuzztime 5s ./internal/telemetry/
	$(GO) test -run '^$$' -fuzz FuzzParseRules -fuzztime 5s ./internal/tsdb/
	$(GO) test -run '^$$' -fuzz FuzzSearchBody -fuzztime 5s ./internal/blastd/
	$(GO) vet -C bench ./... && $(GO) test -C bench -short .
	$(MAKE) bench-smoke
	$(MAKE) metrics-smoke
	$(MAKE) report-smoke
	$(MAKE) service-smoke
	$(MAKE) alert-smoke
	$(MAKE) trace-smoke
	$(MAKE) cli-smoke

# go vet always; staticcheck and govulncheck when installed (the
# container image may not carry them, and `go install` needs network).
lint:
	$(GO) vet ./...
	$(GO) run ./scripts/metriclint .
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint: govulncheck not installed, skipping"; fi

# Boot a throwaway data server with -debug-addr, scrape /metrics, and
# require the telemetry families the dashboards depend on.
metrics-smoke:
	./scripts/metrics_smoke.sh

# Boot a CEFT mini-cluster with one throttled disk, run a search with
# -report, and require the run report's hot-spot audit to name the
# stressed server.
report-smoke:
	./scripts/report_smoke.sh

# Boot a CEFT mini-cluster, serve it with blastd, load it with 8
# concurrent blastbench clients, and require zero failures, queue
# build-up, cache hits and a clean SIGTERM drain.
service-smoke:
	sh ./scripts/service_smoke.sh

# Boot a CEFT mini-cluster with one throttled disk, serve it with a
# monitored blastd, and require the server_skew alert to fire under
# sustained load (naming the hot server), resolve after the load
# stops, and pariotop to render live per-server RPC rates.
alert-smoke:
	sh ./scripts/alert_smoke.sh

# Boot a CEFT mini-cluster with one throttled disk, queue one query
# behind another at -max-concurrent 1, and require a single trace ID
# to span the HTTP response, blastd's queue/cache/task/search spans, a
# data server's serve:* span, the flight recorder (with a non-zero
# queue wait) and a request-latency exemplar — then render it with
# pariostat -query.
trace-smoke:
	sh ./scripts/trace_smoke.sh

# Boot a PVFS and a CEFT mini-cluster and drive the storage CLIs end
# to end: formatdb -> dbinfo -verify on every backend, pariocp a
# fragment out and -ls it, then a two-query mpiblast in-process (with
# and without -readahead), distributed and distributed with -scratch,
# requiring hit lines identical to serial blastn, and a megablast pair
# (serial blastn vs in-process mpiblast -readahead) with identical hit
# lines.
cli-smoke:
	sh ./scripts/cli_smoke.sh

# One iteration of every benchmark: catches bit-rotted benchmark code
# without paying for real measurement runs.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ . ./internal/blast/ ./internal/align/

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Non-test Go lines per package directory plus a total: the size
# figure simplicity changes report before and after. Narrow it with
# `sh scripts/loc.sh DIR...`. Not part of `make check`.
loc:
	sh ./scripts/loc.sh

# Re-run the benchmarks recorded in the BENCH_*.json baselines and
# flag regressions: ns/op beyond BENCH_TOLERANCE percent (default 10;
# legacy baselines widen their own gate via ns_tolerance_pct), any
# rpcs/op growth past BENCH_RPC_TOLERANCE percent, and ANY allocs/op
# increase (exact — allocation counts are deterministic). Not part of
# `make check`: real measurement runs are slow and noisy.
bench-compare:
	./scripts/bench_compare.sh
