#!/usr/bin/env bash
# Continuous-performance collector entry points (see EXPERIMENTS.md).
#
#   scripts/bench.sh record    — re-record the committed baseline
#                                (deterministic counters only; commit the
#                                result alongside the PR that changed them)
#   scripts/bench.sh compare   — collect a quick run and gate it against
#                                the committed baseline (non-zero exit on
#                                any deterministic-counter regression)
#   scripts/bench.sh full      — deep local collection to BENCH_local.json
#   scripts/bench.sh history … — pass-through to the bench_history CLI
#                                against the default store
#                                artifacts/history (record / list /
#                                trajectory / compare / prune
#                                subcommands; add --store DIR to use
#                                another store)
#
# An optional second argument narrows record/compare/full to benchmarks
# whose name contains the substring, e.g. `scripts/bench.sh compare
# dataflow`.
#
# Batch depth is tunable via SKILLTAX_BENCH_BATCHES / SKILLTAX_BENCH_BATCH_MS.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=artifacts/BENCH_baseline.json
FILTER="${2:-}"
FILTER_ARGS=()
if [ -n "$FILTER" ]; then
    FILTER_ARGS=(--filter "$FILTER")
fi

case "${1:-compare}" in
    record)
        cargo run --release --offline -p skilltax-bench --bin bench_collect -- \
            --deterministic-only --label baseline --out "$BASELINE" "${FILTER_ARGS[@]}"
        echo "baseline recorded: $BASELINE (commit it with the change that explains it)"
        ;;
    compare)
        cargo run --release --offline -p skilltax-bench --bin bench_compare -- \
            --baseline "$BASELINE" "${FILTER_ARGS[@]}"
        ;;
    full)
        cargo run --release --offline -p skilltax-bench --bin bench_collect -- \
            --label local "${FILTER_ARGS[@]}"
        ;;
    history)
        shift
        if [ $# -eq 0 ]; then
            echo "usage: scripts/bench.sh history <record|list|trajectory|compare|prune> [flags]" >&2
            exit 2
        fi
        sub="$1"
        shift
        # Default to the in-repo store unless the caller named one.
        store_args=(--store artifacts/history)
        for arg in "$@"; do
            if [ "$arg" = "--store" ]; then
                store_args=()
            fi
        done
        cargo run --release --offline -p skilltax-bench --bin bench_history -- \
            "$sub" ${store_args[@]+"${store_args[@]}"} "$@"
        ;;
    *)
        echo "usage: scripts/bench.sh [record|compare|full|history] [FILTER]" >&2
        exit 2
        ;;
esac
