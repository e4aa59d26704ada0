//! ANN scale-tier benchmark: recall@10 and per-query latency percentiles
//! for every search backend over synthetic clustered embeddings, at the
//! entity counts the paper's KGs span and beyond.
//!
//! ```text
//! cargo run --release -p emblookup-bench --bin ann_bench              # 600 + 100k tiers
//! cargo run --release -p emblookup-bench --bin ann_bench -- --scale   # adds the 1M tier
//! cargo run --release -p emblookup-bench --bin ann_bench -- --smoke   # 600 tier only, CI smoke
//! ```
//!
//! Emits `BENCH_ann.json` in the repo root: per-tier, per-backend
//! `recall_at_10`, `p50_ns`/`p99_ns`, build time and true index bytes,
//! plus the active distance-kernel variant and the measured speedup of
//! the batched 4-lane ADC kernels (contiguous block and gathered by id)
//! over per-code scoring. Every run, `--smoke` included, exits non-zero
//! unless the three ADC forms agree to the bit on the bench's own codes.

#![forbid(unsafe_code)]

use emblookup_ann::{
    kernels, AnnIndex, FlatIndex, HnswConfig, HnswIndex, HnswPqConfig, HnswPqIndex, IvfConfig,
    IvfIndex, PqConfig, PqIndex, VectorSet,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const DIM: usize = 64;
const K: usize = 10;
/// Timed passes over the query set; each query's latency is its minimum
/// across passes (the intrinsic cost of that query, with scheduler
/// jitter filtered out), and percentiles are over the per-query minima.
const PASSES: usize = 5;

/// Synthetic clustered embeddings: unit-ish cluster centres with small
/// isotropic noise, the same shape real entity embeddings take after
/// metric learning (tight label clusters, L2-comparable scales).
fn clustered(n: usize, seed: u64) -> VectorSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let nclusters = (n / 30).clamp(16, 4096);
    let centers: Vec<Vec<f32>> = (0..nclusters)
        .map(|_| (0..DIM).map(|_| rng.gen_range(-1.0..1.0f32)).collect())
        .collect();
    let mut vs = VectorSet::new(DIM);
    let mut v = vec![0.0f32; DIM];
    for i in 0..n {
        let c = &centers[i % nclusters];
        for (out, &ci) in v.iter_mut().zip(c) {
            *out = ci + rng.gen_range(-0.35..0.35f32);
        }
        vs.push(&v);
    }
    vs
}

/// Held-out queries: perturbed copies of stored vectors, so every query
/// has a meaningful true neighbourhood.
fn queries_for(data: &VectorSet, nq: usize, seed: u64) -> VectorSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut qs = VectorSet::new(DIM);
    let mut q = vec![0.0f32; DIM];
    for i in 0..nq {
        let base = data.get((i * 37) % data.len());
        for (out, &bi) in q.iter_mut().zip(base) {
            *out = bi + rng.gen_range(-0.1..0.1f32);
        }
        qs.push(&q);
    }
    qs
}

struct BackendRun {
    name: &'static str,
    recall_at_10: f64,
    p50_ns: u64,
    p99_ns: u64,
    build_ms: u128,
    nbytes: usize,
}

/// Runs every query `PASSES` times through `index`, recording recall@10
/// against `truth` and the p50/p99 of the per-query minimum latencies.
/// Taking each query's best-of-passes measures the cost of the query
/// itself rather than of a scheduler preemption that landed on one run.
fn measure(
    index: &dyn AnnIndex,
    build_ms: u128,
    queries: &VectorSet,
    truth: &[HashSet<usize>],
) -> BackendRun {
    let search = |i: usize| index.search_counted(queries.get(i), K).0;
    // warm-up pass: touch every code path (and the one-shot kernel
    // dispatch) before the clock starts
    for i in 0..queries.len().min(8) {
        black_box(search(i));
    }
    let mut lats = vec![u64::MAX; queries.len()];
    let mut hit = 0usize;
    let mut total = 0usize;
    for pass in 0..PASSES {
        for i in 0..queries.len() {
            let t = Instant::now();
            let res = black_box(search(i));
            lats[i] = lats[i].min(t.elapsed().as_nanos() as u64);
            if pass == 0 {
                hit += res.iter().filter(|n| truth[i].contains(&n.index)).count();
                total += truth[i].len();
            }
        }
    }
    lats.sort_unstable();
    BackendRun {
        name: index.name(),
        recall_at_10: hit as f64 / total.max(1) as f64,
        p50_ns: lats[lats.len() / 2],
        p99_ns: lats[(lats.len() * 99 / 100).min(lats.len() - 1)],
        build_ms,
        nbytes: index.nbytes(),
    }
}

/// One scale tier: builds every backend over the same vectors, measures
/// recall/latency against the exact flat ground truth.
fn run_tier(n: usize, nq: usize, threads: usize) -> Vec<BackendRun> {
    eprintln!("[ann_bench] tier {n}: generating vectors");
    let data = clustered(n, 42);
    let queries = queries_for(&data, nq, 43);

    let t = Instant::now();
    let flat = FlatIndex::new(data.clone());
    let flat_build = t.elapsed().as_millis();
    let truth: Vec<HashSet<usize>> = flat
        .search_batch(&queries, K, threads)
        .into_iter()
        .map(|hits| hits.into_iter().map(|h| h.index).collect())
        .collect();

    // per-tier configs: list/beam widths scale with n, quantizer
    // codebooks stay small at 600 entities so table build cannot
    // dominate the per-query cost. At 1M the true top-10 distances sit
    // in a much denser shell, so the tier needs a finer IVF partition,
    // wider beams on both graph backends, and twice the PQ resolution
    // (m=16): with m=8 the ADC error swamps the neighbor gaps and
    // fused recall collapses (measured 0.38).
    let (nlist, nprobe) = if n <= 1_000 {
        (24, 12)
    } else if n <= 200_000 {
        (256, 16)
    } else {
        (1024, 24)
    };
    let (hm, ef) = if n <= 1_000 {
        (12, 48)
    } else if n <= 200_000 {
        (16, 64)
    } else {
        (16, 128)
    };
    // the fused backend re-ranks an ADC top-max(ef,4k) pool collected
    // over every scored node (against its 8-bit rows), so it holds its
    // recall with a much narrower beam than plain HNSW (sweep: ef 12 is
    // the 600-tier recall knee); at 1M the pool must widen with the ADC
    // error
    let (hpm, hpef) = if n <= 1_000 {
        (12, 16)
    } else if n <= 200_000 {
        (16, 64)
    } else {
        (16, 192)
    };
    let pq_cfg = if n <= 1_000 {
        PqConfig { m: 8, ks: 16, kmeans_iters: 10, seed: 0 }
    } else if n <= 200_000 {
        PqConfig { m: 8, ks: 256, kmeans_iters: 6, seed: 0 }
    } else {
        PqConfig { m: 16, ks: 256, kmeans_iters: 6, seed: 0 }
    };

    let hnsw_cfg = |m: usize, ef_search: usize| HnswConfig {
        m,
        ef_construction: ef.max(2 * m),
        ef_search,
        seed: 0,
    };
    type Builder<'a> = Box<dyn Fn() -> Box<dyn AnnIndex> + 'a>;
    let builders: [Builder; 4] = [
        Box::new(|| {
            Box::new(IvfIndex::build(
                data.clone(),
                IvfConfig { nlist, nprobe, kmeans_iters: 5, seed: 0 },
            ))
        }),
        Box::new(|| Box::new(PqIndex::build(&data, pq_cfg))),
        Box::new(|| Box::new(HnswIndex::build(data.clone(), hnsw_cfg(hm, ef)))),
        Box::new(|| {
            Box::new(HnswPqIndex::build(
                &data,
                HnswPqConfig { hnsw: hnsw_cfg(hpm, hpef), pq: pq_cfg },
            ))
        }),
    ];
    let mut out = vec![measure(&flat, flat_build, &queries, &truth)];
    for build in &builders {
        let t = Instant::now();
        let index = build();
        let build_ms = t.elapsed().as_millis();
        eprintln!("[ann_bench] tier {n}: built {} in {build_ms} ms", index.name());
        out.push(measure(index.as_ref(), build_ms, &queries, &truth));
    }
    out
}

/// Speed of the two batched ADC kernels relative to the per-code loop
/// each replaces.
struct AdcSpeedup {
    /// `adc_block` over contiguous codes — the PQ scan's shape — against
    /// `adc` per contiguous code.
    block: f64,
    /// `adc_gather` over id runs of [`GATHER_RUN`] — the PQ-fused
    /// traversal's shape — against `adc` per id over the same ids.
    gather: f64,
}

/// Ids per `adc_gather` call: the mean number of unvisited peers one beam
/// expansion of the PQ-fused traversal scores (≈ 640 nodes over ≈ 65
/// expansions per query on the 19k tier).
const GATHER_RUN: usize = 10;

/// Measures the batched ADC kernels against per-code scoring on the same
/// table and codes, in the shapes their callers use: `adc_block` over
/// the contiguous codes (the PQ scan), `adc_gather` over seeded id runs
/// (the fused traversal, which scores peers where their codes lie; its
/// baseline reads the same ids one `adc` at a time, with `m` a runtime
/// value as it is in the index). Every variant produces the full
/// distance array, so the comparison is store-for-store fair — and they
/// must produce the *same* distances: `Err` names the first slot where
/// any differ in any bit.
fn adc_batch_speedup() -> Result<AdcSpeedup, String> {
    let m = 8usize;
    let ks = 256usize;
    let ncodes = 8192usize;
    let reps = 200usize;
    let mut rng = StdRng::seed_from_u64(7);
    let table: Vec<f32> = (0..m * ks).map(|_| rng.gen_range(0.0..1.0f32)).collect();
    let codes: Vec<u8> = (0..ncodes * m)
        .map(|_| rng.gen_range(0..ks) as u8)
        .collect();
    let ids: Vec<u32> = (0..ncodes).map(|_| rng.gen_range(0..ncodes as u32)).collect();
    let mut out = vec![0.0f32; ncodes];

    // warm-up resolves the kernel dispatch
    kernels::adc_block(&table, ks, m, &codes, &mut out);
    black_box(&mut out);

    // best-of-trials per variant: the minimum is the intrinsic kernel
    // cost, everything above it is scheduler noise
    let mut per_code = u128::MAX;
    let mut batched = u128::MAX;
    let mut per_id = u128::MAX;
    let mut gathered = u128::MAX;
    let m_rt = black_box(m);
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..reps {
            for (o, code) in out.iter_mut().zip(codes.chunks_exact(m)) {
                *o = kernels::adc(&table, ks, code);
            }
            black_box(&mut out);
        }
        per_code = per_code.min(t.elapsed().as_nanos());

        let t = Instant::now();
        for _ in 0..reps {
            kernels::adc_block(&table, ks, m, &codes, &mut out);
            black_box(&mut out);
        }
        batched = batched.min(t.elapsed().as_nanos());

        let t = Instant::now();
        for _ in 0..reps {
            for (o, &id) in out.iter_mut().zip(&ids) {
                *o = kernels::adc(&table, ks, &codes[id as usize * m_rt..][..m_rt]);
            }
            black_box(&mut out);
        }
        per_id = per_id.min(t.elapsed().as_nanos());

        let t = Instant::now();
        for _ in 0..reps {
            for (run, o) in ids.chunks(GATHER_RUN).zip(out.chunks_mut(GATHER_RUN)) {
                kernels::adc_gather(&table, ks, m_rt, &codes, run, o);
            }
            black_box(&mut out);
        }
        gathered = gathered.min(t.elapsed().as_nanos());
    }

    // the determinism contract of `kernels`, checked on the bench's own
    // inputs: `out` holds the last gathered pass, which must equal the
    // per-code distance of the id it was given, as must the block pass
    let single: Vec<f32> = codes.chunks_exact(m).map(|code| kernels::adc(&table, ks, code)).collect();
    if let Some(i) = (0..ncodes).find(|&i| out[i].to_bits() != single[ids[i] as usize].to_bits()) {
        return Err(format!("adc_gather differs from adc at slot {i} (code {})", ids[i]));
    }
    kernels::adc_block(&table, ks, m, &codes, &mut out);
    if let Some(i) = (0..ncodes).find(|&i| out[i].to_bits() != single[i].to_bits()) {
        return Err(format!("adc_block differs from adc at code {i}"));
    }

    Ok(AdcSpeedup {
        block: per_code as f64 / batched.max(1) as f64,
        gather: per_id as f64 / gathered.max(1) as f64,
    })
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale = args.iter().any(|a| a == "--scale");
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut tiers: Vec<(usize, usize)> = if smoke {
        vec![(600, 50)]
    } else {
        vec![(600, 200), (100_000, 200)]
    };
    if scale {
        tiers.push((1_000_000, 100));
    }

    let speedup = match adc_batch_speedup() {
        Ok(speedup) => speedup,
        Err(why) => {
            eprintln!("[ann_bench] FAIL: batched ADC is not bit-equal to per-code ADC: {why}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "[ann_bench] kernel={} batched-adc speedup={:.2}x gathered-adc (runs of {GATHER_RUN}) speedup={:.2}x, outputs bit-equal",
        kernels::active(),
        speedup.block,
        speedup.gather
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"kernel\": \"{}\",\n  \"dim\": {DIM},\n  \"k\": {K},\n  \"adc_batch_speedup\": {:.2},\n  \"adc_gather_speedup\": {:.2},\n  \"tiers\": [",
        kernels::active(),
        speedup.block,
        speedup.gather
    );
    for (ti, &(n, nq)) in tiers.iter().enumerate() {
        let runs = run_tier(n, nq, threads);
        println!("\n== tier: {n} entities, {nq} queries x {PASSES} passes, kernel {} ==", kernels::active());
        println!(
            "{:<8} {:>10} {:>10} {:>10} {:>10} {:>12}",
            "backend", "recall@10", "p50", "p99", "build_ms", "nbytes"
        );
        for r in &runs {
            println!(
                "{:<8} {:>10.3} {:>10} {:>10} {:>10} {:>12}",
                r.name,
                r.recall_at_10,
                fmt_ns(r.p50_ns),
                fmt_ns(r.p99_ns),
                r.build_ms,
                r.nbytes
            );
        }
        let _ = write!(json, "{}\n    {{\"entities\": {n}, \"queries\": {nq}, \"backends\": [", if ti == 0 { "" } else { "," });
        for (bi, r) in runs.iter().enumerate() {
            let _ = write!(
                json,
                "{}\n      {{\"name\": \"{}\", \"recall_at_10\": {:.4}, \"p50_ns\": {}, \"p99_ns\": {}, \"build_ms\": {}, \"nbytes\": {}}}",
                if bi == 0 { "" } else { "," },
                r.name,
                r.recall_at_10,
                r.p50_ns,
                r.p99_ns,
                r.build_ms,
                r.nbytes
            );
        }
        let _ = write!(json, "\n    ]}}");
    }
    let _ = write!(json, "\n  ]\n}}\n");

    if smoke {
        // CI health check: don't clobber the checked-in two-tier
        // snapshot with a 600-only smoke run
        eprintln!("[ann_bench] smoke run: BENCH_ann.json left untouched");
    } else {
        match std::fs::write("BENCH_ann.json", &json) {
            Ok(()) => eprintln!("[ann_bench] snapshot written to BENCH_ann.json"),
            Err(e) => eprintln!("[ann_bench] cannot write BENCH_ann.json: {e}"),
        }
    }
}
