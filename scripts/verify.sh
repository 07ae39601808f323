#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md).  Everything runs offline:
# the workspace is hermetic (DESIGN.md §5), so an empty cargo registry
# must be sufficient.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline (including bench targets)"
cargo build --release --offline --workspace --benches

echo "==> cargo test --workspace -q --offline"
cargo test --workspace -q --offline

echo "==> cargo clippy --workspace --all-targets --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

# Build and run every example so drift between the examples and the
# library API fails tier-1 instead of rotting silently.
for src in examples/*.rs; do
    name="$(basename "$src" .rs)"
    echo "==> cargo run --release --offline --example $name"
    cargo run --release --offline --example "$name" >/dev/null
done

# Scheduler identity: the event-driven engines must stay counter-exact
# twins of the dense reference loops (DESIGN.md §9).  Release mode — the
# suite includes multi-hundred-core staggered runs.
echo "==> cargo test --release --offline -p skilltax-machine --test scheduler_identity"
cargo test --release --offline -p skilltax-machine --test scheduler_identity -q

# Decoupled identity: untraced interaction-free MIMD runs advance core by
# core, one quantum at a time, and must stay counter- and error-exact
# twins of the dense loop (DESIGN.md §9); the uni-processor's burst
# kernel keeps its old outcomes.
echo "==> cargo test --release --offline -p skilltax-machine --test decoupled_identity"
cargo test --release --offline -p skilltax-machine --test decoupled_identity -q

# Kernel identity: the fused local-instruction kernel and the array's
# opcode-hoisted lockstep kernel must do exactly what stepping the same
# programs one instruction at a time does — at every cycle bound, under
# hashed stalls or bit flips, traced and untraced (DESIGN.md §9).
echo "==> cargo test --release --offline -p skilltax-machine --test kernel_identity"
cargo test --release --offline -p skilltax-machine --test kernel_identity -q

# Chaos soak: the multi-tenant service under a seeded hostile tenant
# mix (DESIGN.md §11).  SKILLTAX_SOAK_SECONDS maps deterministically to
# a round count, so this short gate replays bit-identically; the
# example exits non-zero on any robustness-invariant violation.
echo "==> SKILLTAX_SOAK_SECONDS=2 cargo run --release --offline --example service_soak"
SKILLTAX_SOAK_SECONDS=2 \
    cargo run --release --offline --example service_soak >/dev/null

# Bench smoke: run the continuous-performance collector in quick mode
# and gate the deterministic counters against the committed baseline.
echo "==> bench collector smoke (quick mode + regression gate)"
SKILLTAX_BENCH_BATCHES=3 SKILLTAX_BENCH_BATCH_MS=2 \
    cargo run --release --offline -p skilltax-bench --bin bench_compare -- \
    --baseline artifacts/BENCH_baseline.json

# Service benchmark smoke: every workload, untraced and traced, with 1 s
# windows and the output check on.  The benchmark is its own Cargo
# package linking the service API, so drift in that API fails here.
echo "==> cargo test --release --offline --manifest-path benchmark/Cargo.toml"
cargo test --release --offline --manifest-path benchmark/Cargo.toml \
    --target-dir "${CARGO_TARGET_DIR:-target/benchmark}" -q

# Perf-history smoke: record two commits into a throwaway store, then
# answer a trajectory query and a triaged comparison through the
# bench_history CLI.  (The perf_history example above already drove the
# /perf/* HTTP endpoints end-to-end over a real socket.)
echo "==> perf-history smoke (record x2 + trajectory + compare)"
HISTORY_STORE="$(mktemp -d)"
trap 'rm -rf "$HISTORY_STORE"' EXIT
SKILLTAX_BENCH_BATCHES=3 SKILLTAX_BENCH_BATCH_MS=2 \
    cargo run --release --offline -p skilltax-bench --bin bench_history -- \
    record --store "$HISTORY_STORE" --commit smoke1 --label smoke --filter taxonomy >/dev/null
SKILLTAX_BENCH_BATCHES=3 SKILLTAX_BENCH_BATCH_MS=2 \
    cargo run --release --offline -p skilltax-bench --bin bench_history -- \
    record --store "$HISTORY_STORE" --commit smoke2 --label smoke --filter taxonomy >/dev/null
cargo run --release --offline -p skilltax-bench --bin bench_history -- \
    trajectory --store "$HISTORY_STORE" \
    --bench taxonomy/classify_templates --counter work.classified
cargo run --release --offline -p skilltax-bench --bin bench_history -- \
    compare --store "$HISTORY_STORE" --from smoke1 --to smoke2
# Prune down to the newest entry; the trajectory over the survivor must
# still answer (the store GC can thin history but never orphan it).
cargo run --release --offline -p skilltax-bench --bin bench_history -- \
    prune --store "$HISTORY_STORE" --keep 1
cargo run --release --offline -p skilltax-bench --bin bench_history -- \
    trajectory --store "$HISTORY_STORE" \
    --bench taxonomy/classify_templates --counter work.classified >/dev/null

echo "verify: OK"
