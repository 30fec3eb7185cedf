#!/bin/sh
# Perf regression gate: re-measure the core benchmark pairs quickly and
# compare their optimized/baseline ratios against the committed
# BENCH_core.json record. The ratios are dimensionless, so a record
# measured on one machine constrains runs on any other; a pair whose
# ratio worsens by more than the corebench default tolerance (10%) —
# or a market.slot_ecdf speedup below the 2x acceptance bar — fails
# the build. The client.market alloc ceilings ride on the
# same run: the live quote window serves the per-slot market fetch in
# ≤ 8 allocs and ≤ 4 KiB per op (measured: 2 allocs, ~260 B — the tick
# and history-view bookkeeping), where the legacy snapshot path burned
# ~300 KB. Refresh the record with `make bench-core` after an
# intentional performance change.
#
# The serving gate rides along: cmd/servebench re-measures the quote
# hot path and fails if any serve.quote_* branch allocates (the
# committed BENCH_serve.json is the 0-alloc contract). Refresh it with
# `make bench-serve`.
set -e
cd "$(dirname "$0")/.."
if [ ! -f BENCH_core.json ]; then
    echo "perfgate: BENCH_core.json missing; run 'make bench-core' and commit it" >&2
    exit 1
fi
if [ ! -f BENCH_serve.json ]; then
    echo "perfgate: BENCH_serve.json missing; run 'make bench-serve' and commit it" >&2
    exit 1
fi
"${GO:-go}" run ./cmd/corebench -quick -gate BENCH_core.json -max-market-allocs 8 -max-market-bytes 4096
exec "${GO:-go}" run ./cmd/servebench -quick -gate BENCH_serve.json
