#!/usr/bin/env bash
# Tier-1 verification gate. Everything runs offline: the workspace has no
# crates.io dependencies (rand resolves to the in-tree shim in
# crates/rand), so --offline both works and enforces that it stays true.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release --offline =="
cargo build --release --offline

# Tests run twice: pinned to one thread (pure serial pool paths) and at
# width 2, the benchmark's, where the pool has a worker. The second run
# is pinned, not the machine default: on a two-core box the default is
# available_parallelism() - 1 = 1, which would repeat the first run and
# never show the root package's tests (alloc_budget, end_to_end, ...) a
# pool worker. Batch kernels write disjoint output slots, so both
# configurations must produce identical results — divergence is a bug.
# --workspace: the root package alone is 9 test binaries; every crate's
# unit and integration tests are part of the gate. That includes the
# serve suites (tests/server.rs, tests/shards.rs), which drive a real
# server over TCP: their assertions (statuses, rung order, counter
# values, response bytes, span forests) must hold at any pool width, and
# EMBLOOKUP_THREADS also sets the width of the global pool the sharded
# scatter fans out on — so both widths matter for them.
echo "== cargo test -q --offline --workspace (EMBLOOKUP_THREADS=1) =="
EMBLOOKUP_THREADS=1 cargo test -q --offline --workspace

echo "== cargo test -q --offline --workspace (EMBLOOKUP_THREADS=2) =="
EMBLOOKUP_THREADS=2 cargo test -q --offline --workspace

# The pool and serve suites run once more at width 4, where a shard
# attempt's own search is chunked too. The task count
# tests/fanout_tasks.rs pins for a bulk of 32 over 2 shards — the
# embedding pass, plus one task per shard attempt, plus each attempt's
# own `search_batch` chunks once its share of the pool (width /
# attempts) is above one thread — reads +1 at width 1, +2 at widths 2-3
# and +2 + 2 x 4 at width 4, so widths 1, 2 and 4 see all three. The
# ann suite rides along: the HNSW build runs each batch's two phases on
# the global pool, and its identity tests against the batched oracle
# reach more parallel arms with more workers. alloc_budget rides along
# too: its bulk budgets grow with the pool width.
echo "== cargo test -q --offline -p emblookup-pool -p emblookup-serve -p emblookup-ann (EMBLOOKUP_THREADS=4) =="
EMBLOOKUP_THREADS=4 cargo test -q --offline -p emblookup-pool -p emblookup-serve -p emblookup-ann
echo "== cargo test -q --offline -p emblookup --test alloc_budget (EMBLOOKUP_THREADS=4) =="
EMBLOOKUP_THREADS=4 cargo test -q --offline -p emblookup --test alloc_budget

# The benchmark package is a workspace of its own (path dependencies on
# crates/*), so --workspace never compiles it: without these two lines a
# signature change that breaks the harness is found only when the PR is
# benchmarked. Builds into the git-ignored benchmark/target, as
# benchmark/run.sh does.
echo "== benchmark package: cargo build --release + cargo test (offline) =="
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml

# The differential net under the serving tier (~1 min; writes only the
# git-ignored benchmark/out/): all four workloads, and a non-zero exit on
# any failed operation, any served answer that differs from the
# in-process ShardedIndex oracle, or a non-zero serve.shed /
# deadline_504 / degraded.
echo "== benchmark/run.sh --smoke (served answers vs the in-process oracle) =="
bash benchmark/run.sh --smoke

# Kernel-dispatch matrix: every suite whose arithmetic resolves a kernel
# variant must hold under both the forced scalar fallback and auto-detected
# SIMD (EMBLOOKUP_KERNEL resolves once per process, so each setting needs
# its own run). That was the ann suite alone while only distances
# dispatched; the encoder's convolutions and gemvs now do too, so tensor,
# embed and core ride along — core's golden embedding hash is one constant
# both runs must produce. The ANN bench smoke (600-tier only, snapshot
# untouched) proves the recall/latency harness itself stays healthy.
kernel_suites=(-p emblookup-ann -p emblookup-tensor -p emblookup-embed -p emblookup-core)
for kernel in scalar auto; do
    echo "== cargo test -q --offline ${kernel_suites[*]} (EMBLOOKUP_KERNEL=$kernel) =="
    EMBLOOKUP_KERNEL=$kernel cargo test -q --offline "${kernel_suites[@]}"
done

# The hostile-input tests of the file readers (KG, fastText, SGNS and
# model buffers: every truncation, crafted lengths, appended bytes) once
# more in release, where integer overflow wraps silently instead of
# panicking: a length check that leans on the debug-build panic shows here.
echo "== cargo test -q --release --offline -p emblookup-kg -p emblookup-embed -p emblookup-core -- reject =="
cargo test -q --release --offline -p emblookup-kg -p emblookup-embed -p emblookup-core -- reject

echo "== ann_bench --smoke (600-tier health check) =="
cargo run -q --release --offline -p emblookup-bench --bin ann_bench -- --smoke

# The repro binary's own dispatch, which the library tests never reach:
# one experiment end to end at smoke scale (one environment, ~6 s),
# printing its claims table, and an experiment name it does not know
# must fail instead of printing an empty report.
echo "== repro --smoke sizes; repro rejects an unknown experiment =="
cargo run -q --release --offline -p emblookup-bench --bin repro -- --smoke sizes | awk '/^## /{show = /^## Claims/} show'
if cargo run -q --release --offline -p emblookup-bench --bin repro -- nope 2>/dev/null; then
    echo "ci.sh: FAIL — repro accepted the unknown experiment name 'nope'" >&2
    exit 1
fi

# Enforces the root Cargo.toml's [workspace.lints.clippy] table (every
# member opts in) and clippy.toml: no unwrap/expect/panic/unreachable/
# todo/unimplemented in library code, a `// SAFETY:` on every unsafe
# block, a reason on every suppression (written `#[expect]`, so a stale
# one fails here), no loop over a hash container's order,
# std::sync::atomic only inside emblookup_obs::sync, and no call to
# `partial_cmp` (clippy.toml's disallowed-methods).
echo "== cargo clippy -- -D warnings (workspace lints + clippy.toml) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

# The other half of float discipline in library code: no exact
# `==`/`!=` between floats (`float_cmp` exempts comparisons against
# zero, the exact-zero sparsity and divide-by-zero tests). Library
# targets only: tests compare exact float results on purpose.
echo "== cargo clippy --lib -- -D clippy::float_cmp (float discipline in library code) =="
cargo clippy --offline --workspace --lib -- -D warnings -D clippy::float_cmp

# A task marker carries its reference (`#123` or a URL), or it is where
# work goes to be forgotten.
echo "== TODO/FIXME markers carry an issue reference =="
if grep -rnwE 'TODO|FIXME' --include='*.rs' crates/*/src src | grep -vE '#[0-9]|[a-z]://'; then
    echo "ci.sh: FAIL — TODO/FIXME without an issue reference (#123 or a URL)" >&2
    exit 1
fi

# A deletion must not strand a doc link to what it deleted (or to a
# private item): broken and redundant intra-doc links are errors. The
# first run renders the public docs, so it catches a public doc that
# links to a private item; the second renders private modules too, whose
# links the first never reads.
echo "== cargo doc -D warnings (no dangling doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace
echo "== cargo doc -D warnings --document-private-items (links inside private modules) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace --document-private-items

echo "== emblookup-lint (L005 crate layering, L006 API drift) =="
# Hard gate for the two rules no rustc or clippy check expresses: every
# manifest edge flows down the layer DAG, and the public-API snapshot
# matches API.lock (bless with --api-bless). The snapshot comes from
# rustdoc: the linter first runs `RUSTDOCFLAGS='-Z unstable-options
# --output-format json' cargo +nightly doc --offline --no-deps
# --workspace --lib` into target/emblookup-lint, and exits 2 if that
# fails (no nightly, say). Exits 1 with file:line diagnostics on any
# violation and prints a per-rule count (zeros included). The full pass,
# the rustdoc step included, must finish within a 30 s wall-clock budget
# so the gate stays cheap enough to run on every push.
lint_start=$(date +%s)
cargo run -q -p emblookup-lint --release --offline
lint_elapsed=$(( $(date +%s) - lint_start ))
echo "emblookup-lint: full pass took ${lint_elapsed}s (budget 30s)"
if [ "$lint_elapsed" -gt 30 ]; then
    echo "ci.sh: FAIL — lint pass exceeded the 30s wall-clock budget" >&2
    exit 1
fi

# The sizes the north-star tracks (ROADMAP.md: "`API.lock` item count and
# per-crate LOC are tracked numbers that should go down") — quote these
# in CHANGES.md. Beside each, the same figure at HEAD: run before the
# commit, that is the PR's before -> after, from the gate and not from
# hand counting. Outside a git checkout only the current figure prints.
echo "== tracked sizes (at HEAD -> now) =="
count_items() { grep -cvE '^(#|\[|$)' || true; }
# "<figure at HEAD> -> ", or nothing outside a git checkout; the figure
# is computed by the command in "$@".
at_head() {
    git rev-parse -q --verify HEAD >/dev/null 2>&1 || return 0
    printf '%6d -> ' "$("$@")"
}
# Lines of the *.rs files under $1 in the HEAD commit.
head_rs_lines() {
    git ls-tree -r --name-only HEAD -- "$1" | { grep '\.rs$' || true; } |
        while read -r file; do git show "HEAD:$file"; done | wc -l
}
head_api_items() { git show HEAD:API.lock | count_items; }
# Lines of the tooling outside crates/ (scripts/* and root-level *.py)
# in the HEAD commit.
head_tooling_lines() {
    { git ls-tree -r --name-only HEAD -- scripts; git ls-tree --name-only HEAD | { grep '\.py$' || true; }; } |
        while read -r file; do git show "HEAD:$file"; done | wc -l
}
# Distinct EMBLOOKUP_* names passed to env::var in the *.rs files under
# crates/ and src/: the environment variables the program reads. The
# command in "$@" prints the matching calls.
env_var_pattern='env::var(_os)?\("EMBLOOKUP_[A-Z0-9_]+"'
count_env_vars() { { "$@" || true; } | grep -oE 'EMBLOOKUP_[A-Z0-9_]+' | sort -u | wc -l; }
head_env_vars() { count_env_vars git grep -hoE "$env_var_pattern" HEAD -- 'crates/*.rs' 'src/*.rs'; }
now_env_vars() { count_env_vars grep -rhoE --include='*.rs' "$env_var_pattern" crates src; }
for crate in crates/*/; do
    printf '%-18s %s%6d lines of *.rs\n' "$crate" "$(at_head head_rs_lines "$crate")" \
        "$(find "$crate" -name '*.rs' -exec cat {} + | wc -l)"
done
printf '%-18s %s%6d lines of scripts/* and root *.py\n' "tooling" "$(at_head head_tooling_lines)" \
    "$({ find scripts -type f; find . -maxdepth 1 -name '*.py'; } | xargs cat | wc -l)"
printf '%-18s %s%6d items\n' "API.lock" "$(at_head head_api_items)" "$(count_items < API.lock)"
printf '%-18s %s%6d EMBLOOKUP_* names read\n' "env vars" "$(at_head head_env_vars)" "$(now_env_vars)"

echo "ci.sh: all checks passed"
