#!/usr/bin/env bash
# The one command of the EmbLookup benchmark. Builds the benchmark package
# (its own workspace, offline) and runs it from the root of the checkout.
#
#   benchmark/run.sh [--seed N] [--sets 2] [--smoke]
#       all four workloads in interleaved rounds, then the traced pass;
#       prints every metric by name with its unit, writes benchmark/out/.
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload; the last line of stdout is one JSON object
#       (this is the form BENCHMARK.json names).
set -euo pipefail
cd "$(dirname "$0")/.."

# On a 2-core box the pool's default width is nproc-1 = 1, which silently
# makes the bulk path serial: the width is pinned. The kernel variant stays
# on auto-detection; both are recorded in the output.
export EMBLOOKUP_THREADS=2
export EMBLOOKUP_KERNEL="${EMBLOOKUP_KERNEL:-auto}"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
BENCH_RUSTC="$(rustc -V)"
export BENCH_RUSTC

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/emblookup-benchmark" "$@"
