#!/usr/bin/env bash
# Micro-benchmark harness. Runs the full repro pipeline (pass --smoke for a
# quick pass), regenerates BENCH_lookup.json in the repo root, and prints a
# delta table of histogram means against the previously checked-in snapshot
# so a perf PR can paste before/after numbers straight from CI output.
# Also runs the ANN scale-tier bench (BENCH_ann.json): pass --scale to add
# the 1M-entity tier on top of the default 600 + 100k tiers.
set -euo pipefail
cd "$(dirname "$0")/.."

# --scale is ann_bench-only; everything else (e.g. --smoke) goes to both
repro_args=()
ann_args=()
for a in "$@"; do
  case "$a" in
    --scale) ann_args+=("$a") ;;
    --smoke) repro_args+=("$a"); ann_args+=("$a") ;;
    *) repro_args+=("$a") ;;
  esac
done

prev=$(mktemp)
prev_ann=$(mktemp)
prev_serve=$(mktemp)
trap 'rm -f "$prev" "$prev_ann" "$prev_serve"' EXIT
if [[ -f BENCH_lookup.json ]]; then
  cp BENCH_lookup.json "$prev"
else
  echo '{"histograms":{}}' > "$prev"
fi
if [[ -f BENCH_ann.json ]]; then
  cp BENCH_ann.json "$prev_ann"
else
  echo '{"tiers":[]}' > "$prev_ann"
fi
if [[ -f BENCH_serve.json ]]; then
  cp BENCH_serve.json "$prev_serve"
else
  echo '{"scenarios":[]}' > "$prev_serve"
fi

echo "== cargo run --release -p emblookup-bench --bin repro -- ${repro_args[*]-} =="
cargo run --release --offline -p emblookup-bench --bin repro -- ${repro_args[@]+"${repro_args[@]}"}

# Append this run to the perf trajectory. The timestamp comes from
# `date` here at script level, keeping the in-process snapshot (and the
# determinism gate over it) free of wall-clock reads.
ts=$(date -u +%Y-%m-%dT%H:%M:%SZ)
python3 - "$ts" BENCH_lookup.json >> BENCH_history.jsonl <<'PY'
import json, sys
with open(sys.argv[2]) as f:
    snap = json.load(f)
print(json.dumps({"timestamp": sys.argv[1], **snap}, separators=(",", ":")))
PY
echo "== appended run to BENCH_history.jsonl ($(wc -l < BENCH_history.jsonl) runs) =="

python3 - "$prev" BENCH_lookup.json <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    prev = json.load(f).get("histograms", {})
with open(sys.argv[2]) as f:
    cur = json.load(f).get("histograms", {})

names = sorted(set(prev) | set(cur))
if not names:
    sys.exit(0)

def fmt(ns):
    if ns is None:
        return "-"
    if ns >= 1e9:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.2f}us"
    return f"{ns:.0f}ns"

rows = [("metric", "prev mean", "new mean", "speedup")]
for name in names:
    p = prev.get(name, {}).get("mean_ns")
    c = cur.get(name, {}).get("mean_ns")
    speed = f"{p / c:.2f}x" if p and c else "-"
    rows.append((name, fmt(p), fmt(c), speed))

widths = [max(len(r[i]) for r in rows) for i in range(4)]
print("\n== mean latency vs previous BENCH_lookup.json ==")
for i, r in enumerate(rows):
    print("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(r)))
    if i == 0:
        print("  ".join("-" * w for w in widths))
PY

# ANN scale tiers: recall@10 + latency percentiles per backend, plus the
# batched-ADC kernel speedup, regenerating BENCH_ann.json.
echo
echo "== cargo run --release -p emblookup-bench --bin ann_bench -- ${ann_args[*]-} =="
cargo run --release --offline -p emblookup-bench --bin ann_bench -- ${ann_args[@]+"${ann_args[@]}"}

python3 - "$prev_ann" BENCH_ann.json <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    prev = json.load(f)
with open(sys.argv[2]) as f:
    cur = json.load(f)

def index(snap):
    out = {}
    for tier in snap.get("tiers", []):
        for b in tier.get("backends", []):
            out[(tier["entities"], b["name"])] = b
    return out

pi, ci = index(prev), index(cur)

def fmt(ns):
    if ns is None:
        return "-"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.2f}us"
    return f"{ns:.0f}ns"

rows = [("tier/backend", "recall@10", "p99", "prev p99", "speedup")]
for key in sorted(ci):
    c = ci[key]
    p = pi.get(key, {})
    pp, cp = p.get("p99_ns"), c.get("p99_ns")
    speed = f"{pp / cp:.2f}x" if pp and cp else "-"
    rows.append((f"{key[0]}/{key[1]}", f"{c['recall_at_10']:.3f}", fmt(cp), fmt(pp), speed))

for field, label in (("adc_batch_speedup", "adc batched-vs-per-code"),
                     ("adc_gather_speedup", "adc gathered-vs-per-id")):
    sp, sc = prev.get(field), cur.get(field)
    rows.append((label, "-", f"{sc:.2f}x" if sc else "-",
                 f"{sp:.2f}x" if sp else "-", "-"))

widths = [max(len(r[i]) for r in rows) for i in range(5)]
print("\n== ANN tiers vs previous BENCH_ann.json (kernel: %s) ==" % cur.get("kernel", "?"))
for i, r in enumerate(rows):
    print("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(r)))
    if i == 0:
        print("  ".join("-" * w for w in widths))
PY

# Serving-layer chaos bench: open-loop load generator against a live
# in-process server — healthy scatter-gather, one-shard-ejected, and
# overload-pinned scenarios — regenerating BENCH_serve.json.
echo
echo "== cargo run --release -p emblookup-bench --bin serve_bench -- ${repro_args[*]-} =="
cargo run --release --offline -p emblookup-bench --bin serve_bench -- ${repro_args[@]+"${repro_args[@]}"}

python3 - "$prev_serve" BENCH_serve.json <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    prev = {s["name"]: s for s in json.load(f).get("scenarios", [])}
with open(sys.argv[2]) as f:
    cur = {s["name"]: s for s in json.load(f).get("scenarios", [])}

def fmt_us(us):
    if us is None:
        return "-"
    if us >= 1000:
        return f"{us / 1000:.2f}ms"
    return f"{us}us"

rows = [("scenario", "goodput", "prev", "p99", "prev p99", "shed", "partial", "pinned")]
for name in cur:
    c, p = cur[name], prev.get(name, {})
    rows.append((
        name,
        f"{c['goodput_rps']:.0f}/s",
        f"{p['goodput_rps']:.0f}/s" if p else "-",
        fmt_us(c["p99_us"]),
        fmt_us(p.get("p99_us")),
        str(c["shed"]),
        str(c["server_partial"]),
        str(c["server_overload_pinned"]),
    ))

widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
print("\n== serve scenarios vs previous BENCH_serve.json ==")
for i, r in enumerate(rows):
    print("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(r)))
    if i == 0:
        print("  ".join("-" * w for w in widths))
PY

# Lint-runtime stanza: the static-analysis gate is part of every push,
# so its wall time is a perf number worth tracking alongside
# the lookup latencies (ci.sh enforces the 30 s budget; this just
# reports).
echo
echo "== emblookup-lint wall time (per-push gate; ci.sh budget 30s) =="
lint_start_ns=$(date +%s%N)
cargo run -q -p emblookup-lint --release --offline > /dev/null || true
lint_end_ns=$(date +%s%N)
printf 'emblookup-lint: %d ms\n' $(( (lint_end_ns - lint_start_ns) / 1000000 ))
