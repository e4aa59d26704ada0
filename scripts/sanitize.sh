#!/usr/bin/env bash
# Best-effort dynamic cross-check for the concurrency protocols in
# crates/obs/src/sync.rs: runs the pool/obs/serve test suites (obs's
# include the sync protocol tests) under ThreadSanitizer and Miri where
# the toolchain allows it.
#
# Both checks need a nightly toolchain (TSan needs -Z sanitizer=thread
# and a rebuilt std via -Z build-std; Miri is a rustup component). This
# container is offline and pins a stable toolchain, so each section
# probes for its prerequisites and SKIPS gracefully when they are
# missing — the script succeeding while skipping everything is the
# expected outcome offline. It is NOT part of tier-1 CI (scripts/ci.sh);
# see CONTRIBUTING.md "Concurrency".
set -uo pipefail
cd "$(dirname "$0")/.."

CRATES=(emblookup-pool emblookup-obs emblookup-serve)
ran_any=0

echo "== sanitize.sh: TSan + Miri cross-check (best effort) =="

# ---------------------------------------------------------------- TSan
if rustup toolchain list 2>/dev/null | grep -q nightly && \
   rustup component list --toolchain nightly 2>/dev/null | grep -q "rust-src (installed)"; then
    echo "== ThreadSanitizer (nightly, -Z sanitizer=thread) =="
    target="$(rustc -vV | sed -n 's/^host: //p')"
    for crate in "${CRATES[@]}"; do
        echo "-- tsan: $crate --"
        if RUSTFLAGS="-Z sanitizer=thread" cargo +nightly test --offline -p "$crate" \
            -Z build-std --target "$target" -- --test-threads=4; then
            ran_any=1
        else
            echo "sanitize.sh: WARN — tsan run failed for $crate" >&2
        fi
    done
else
    echo "SKIP tsan: no nightly toolchain with rust-src (offline container)"
fi

# ---------------------------------------------------------------- Miri
# probe with an actual invocation: `command -v cargo-miri` matches the
# rustup proxy shim even when the component is not installed
if cargo +nightly miri --version >/dev/null 2>&1; then
    echo "== Miri (unit tests only; integration tests spawn threads/sockets) =="
    for crate in "${CRATES[@]}"; do
        echo "-- miri: $crate --"
        # -Zmiri-disable-isolation: the obs tests read the clock
        if MIRIFLAGS="-Zmiri-disable-isolation" cargo +nightly miri test --offline -p "$crate" --lib; then
            ran_any=1
        else
            echo "sanitize.sh: WARN — miri run failed for $crate" >&2
        fi
    done
else
    echo "SKIP miri: cargo-miri not installed (offline container)"
fi

if [ "$ran_any" -eq 0 ]; then
    echo "sanitize.sh: nothing ran (no nightly tooling available) — static coverage only (obs::sync's types and tests, clippy's disallowed-types confinement of atomics and forbid(unsafe_code) via scripts/ci.sh)"
else
    echo "sanitize.sh: done"
fi
