#!/usr/bin/env bash
# End-to-end benchmark of the skilltax job service (see benchmark/README.md).
#
#   benchmark/run.sh [--seed N] [--runs K] [--seconds S] [--traced] [--out DIR]
#       Build once, then run every workload in a fresh process for seeds
#       N .. N+K-1 (default: seed 1, one run, 10 s windows), printing every
#       metric by name and unit.  --traced adds the per-layer run.
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run of one workload; the last line of output is the JSON result.
#   benchmark/run.sh compare DIR_A DIR_B
#       Compare two sets of results (medians, quartiles, pair wins, verdicts).
#
# Builds into $CARGO_TARGET_DIR, or target/benchmark, so the repository's
# own manifest and lock file are never touched.
set -euo pipefail
cd "$(dirname "$0")/.."

# The service reads SKILLTAX_* knobs (worker threads, queue depth, listen
# address); the benchmark measures the defaults.
for var in $(compgen -e | grep '^SKILLTAX_' || true); do
    unset "$var"
done

target="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/skilltax-benchmark"

commit=unknown
if [ -d .git ]; then
    commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
fi

if [ "${1:-}" = compare ]; then
    shift
    exec "$bin" compare "$@"
fi
for arg in "$@"; do
    if [ "$arg" = --workload ]; then
        exec "$bin" "$@" --commit "$commit"
    fi
done

seed=1 runs=1 seconds=10 traced=0 out=benchmark/out
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed=$2; shift 2 ;;
        --runs) runs=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --out) out=$2; shift 2 ;;
        --traced) traced=1; shift ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

status=0
for ((s = seed; s < seed + runs; s++)); do
    for workload in interactive simulate faults burst; do
        for trace in 0 $([ "$traced" = 1 ] && echo 1); do
            "$bin" --workload "$workload" --seed "$s" --seconds "$seconds" --trace "$trace" \
                --out "$out" --commit "$commit" || status=1
        done
    done
done
exit "$status"
