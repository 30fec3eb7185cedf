# Standard checks. `make check` is the pre-merge gate: gofmt + vet + the full
# test suite under the race detector (the chaos loop and the parallel
# experiment harness must stay race-clean) + a shuffled-order pass
# (no test may lean on package-level state left by an earlier test).

GO ?= go

.PHONY: all build test fmt vet race race-obs shuffle no-wallclock perfbench check check-gates fuzz bench bench-json bench-core bench-serve perfgate resilcheck trace-demo serve-demo top-demo

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every Go file is gofmt-clean; the gate lists any that are not.
fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Focused race pass over the observability layer and every package it
# instruments — fast feedback on the shared-registry paths before the
# full suite runs.
race-obs:
	$(GO) test -race ./internal/obs/ ./internal/obs/event/ ./internal/retry/ \
		./internal/checkpoint/ ./internal/cloud/ ./internal/client/ \
		./internal/market/ ./internal/fleet/ ./internal/trace/ \
		./internal/dist/ ./internal/experiments/ ./internal/chaos/ \
		./internal/invariant/ ./internal/strategy/ ./internal/serve/ \
		./internal/obs/tsdb/

# Randomized test order, seed printed on failure for replay with
# -shuffle=N.
shuffle:
	$(GO) test -shuffle=on ./...

# Trace determinism depends on the slot-indexed core never reading the
# wall clock; see DESIGN.md §9.
no-wallclock:
	sh scripts/no_wallclock.sh

# The gate prints its own wall time, pass or fail: test-suite time is
# a tracked budget.
check:
	@start=$$(date +%s); $(MAKE) --no-print-directory check-gates; status=$$?; \
	echo "make check: $$(( $$(date +%s) - start ))s wall"; exit $$status

check-gates: fmt vet no-wallclock perfbench race-obs race shuffle perfgate resilcheck

# perfbench/ is its own module (replace repro => ../), so the root
# build and test never compile it; vet and test it here so a change to
# an internal package cannot break the benchmark unnoticed.
perfbench:
	cd perfbench && $(GO) vet . && $(GO) test .

# Short fuzz pass over both history-parser targets, the
# fault-schedule shrinker, the strategy deciders, the quote-request
# decoder + serving path, the tsdb chunk decoder, the branch-free
# order-statistic searches, and the run-sorting ECDF bulk load.
fuzz:
	$(GO) test -fuzz=FuzzSearchEquivalence -fuzztime=30s ./internal/dist/
	$(GO) test -fuzz=FuzzFillSorted -fuzztime=30s ./internal/dist/
	$(GO) test -fuzz=FuzzReadCSV$$ -fuzztime=30s ./internal/trace/
	$(GO) test -fuzz=FuzzReadCSVCorrupted -fuzztime=30s ./internal/trace/
	$(GO) test -fuzz=FuzzFaultSchedule -fuzztime=30s ./internal/invariant/
	$(GO) test -fuzz=FuzzStrategyDecision -fuzztime=30s ./internal/strategy/
	$(GO) test -fuzz=FuzzQuoteRequest -fuzztime=30s ./internal/serve/
	$(GO) test -fuzz=FuzzTSDBDecode -fuzztime=30s ./internal/obs/tsdb/

# Resilience smoke campaign (deterministic seed): the full default
# fault-schedule grid plus random schedules under all five invariant
# checkers, replay on; exits non-zero on any violation. Part of
# `make check`.
resilcheck:
	$(GO) run ./cmd/resilcheck

bench:
	$(GO) test -bench=. -benchmem .

# Instrumented-vs-Noop overhead record (JSON): micro hot paths plus
# the end-to-end Table 3 pairs (metrics and tracing), whose overhead
# budget is < 5%. Also refreshes the serving hot-path record.
bench-json:
	$(GO) run ./cmd/obsbench -out BENCH_obs.json
	$(GO) run ./cmd/servebench -out BENCH_serve.json

# Serving hot-path record (JSON): quotes/sec, sampled p99 latency, and
# allocs/op per quote branch. The committed BENCH_serve.json is the
# 0-alloc contract scripts/perfgate.sh enforces.
bench-serve:
	$(GO) run ./cmd/servebench -out BENCH_serve.json

# Hot-path before/after record (JSON): the incremental windowed ECDF
# vs the legacy per-slot rebuild, and the trace memo vs regeneration,
# plus current ns/op + allocs/op for the core operations. Commit the
# refreshed BENCH_core.json after an intentional perf change.
bench-core:
	$(GO) run ./cmd/corebench -out BENCH_core.json

# Ratio-based perf regression gate against the committed
# BENCH_core.json plus the 0-alloc serving gate against
# BENCH_serve.json; part of `make check`.
perfgate:
	sh scripts/perfgate.sh

# Chaos-failover flight-recorder walkthrough: per-slot timeline on
# stdout; see examples/flightrecorder for the Perfetto export flags.
trace-demo:
	$(GO) run ./examples/flightrecorder

# Bid-advisory daemon demo: one slot per second (300x compression),
# quotes on http://localhost:8372/v1/quote; ^C drains gracefully. See
# the README serving quickstart for curl examples.
serve-demo:
	$(GO) run ./cmd/spotbidd -addr :8372 -accel 300

# Terminal observatory demo: run the serving drill under the tsdb
# scraper and render every series as a sparkline plus the SLO alert
# timeline (degrade → shed → recover). See the README observatory
# quickstart for the replay and attach modes.
top-demo:
	$(GO) run ./cmd/spotbidtop -drill
