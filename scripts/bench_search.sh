#!/usr/bin/env bash
# Regenerate the whole-search perf snapshot (end-to-end NASAIC on W1).
#
#   scripts/bench_search.sh                      # full run, appends to BENCH_search.json
#   scripts/bench_search.sh --quick --label ci   # CI mode: short budget, still gates
#                                                # on event-stream determinism
#
# All arguments are forwarded to the `search_baseline` binary
# (see `crates/bench/src/bin/search_baseline.rs` for the full flag list,
# including `--validate-trace <file>` used by the CI trace smoke).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo run --release -p nasaic-bench --bin search_baseline -- "$@"
