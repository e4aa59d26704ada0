//! The traced pass: per-layer numbers, one crate at a time.
//!
//! Every traced run makes the same probes against the workload's own
//! graph and index, so the per-layer metrics carry the same names on all
//! four workloads. A layer is measured from outside — by timing calls
//! into its public functions, with the harness's own spans around them —
//! and each metric below names the end-to-end metric it should move in
//! `BENCHMARK.json` / `README.md`.

use crate::check::Tally;
use crate::fixtures::Fixtures;
use crate::hostref::HostRef;
use crate::spans::{layer_table, LayerStat, SpanRec, Tracer};
use crate::stats::{self, median, percentile_of};
use crate::workloads::{
    host_calibration_ms, Kind, Prepared, Segment, BULK_BATCH, CONNECTIONS, K, THREADS,
};
use emblookup_ann::{
    kernels, FlatIndex, HnswConfig, HnswIndex, HnswPqConfig, HnswPqIndex, IvfConfig, IvfIndex,
    Neighbor, PqConfig, PqIndex, VectorSet,
};
use emblookup_baselines::{ElasticLikeService, LevenshteinService, QGramService};
use emblookup_core::merge_topk;
use emblookup_embed::StringEncoder;
use emblookup_kg::LookupService;
use emblookup_obs::{Histogram, Trace, TraceClock};
use emblookup_pool::Pool;
use emblookup_tensor::nn::{Conv1dLayer, Linear};
use emblookup_tensor::{ParamStore, Tensor};
use emblookup_text::{Alphabet, OneHotEncoder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io;
use std::time::{Duration, Instant};

/// One per-layer number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one traced run produced.
pub struct LayerReport {
    pub metrics: Vec<Metric>,
    /// The spans of this workload's own traced pass.
    pub spans: Vec<SpanRec>,
    pub tally: Tally,
}

struct Out(Vec<Metric>);

impl Out {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }
}

/// Median per-call time in nanoseconds, each call timed on its own.
fn p50_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut ns: Vec<u64> = (0..calls)
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_nanos() as u64
        })
        .collect();
    percentile_of(&mut ns, 50.0)
}

/// For calls too short to time alone: median over `batches` of the mean
/// per-call time of `per_batch` back-to-back calls.
fn batched_ns(batches: usize, per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_call: Vec<f64> = (0..batches)
        .map(|b| {
            let t = Instant::now();
            for i in 0..per_batch {
                f(b * per_batch + i);
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&per_call)
}

fn p50_us(samples: &[u64]) -> f64 {
    percentile_of(&mut samples.to_vec(), 50.0) / 1e3
}

fn span_stat(table: &BTreeMap<&'static str, LayerStat>, name: &str) -> LayerStat {
    table.get(name).cloned().unwrap_or_default()
}

/// One alternating pass: untraced and traced slices of the same segment
/// runner in turn, so that host drift lands on both halves alike.
struct Pass {
    plain: Vec<Segment>,
    traced: Vec<Segment>,
    spans: Vec<SpanRec>,
}

impl Pass {
    fn run(
        epoch: Instant,
        total: Duration,
        slice: Duration,
        mut segment: impl FnMut(Duration, Option<&mut Tracer>) -> io::Result<Segment>,
    ) -> io::Result<Pass> {
        let pairs = ((total.as_secs_f64() / (2.0 * slice.as_secs_f64())).round() as usize).max(1);
        let mut tracer = Tracer::new(epoch);
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for _ in 0..pairs {
            plain.push(segment(slice, None)?);
            traced.push(segment(slice, Some(&mut tracer))?);
        }
        Ok(Pass {
            plain,
            traced,
            spans: tracer.spans,
        })
    }

    /// Latencies of the untraced operations, ascending.
    fn plain_ops(&self) -> Vec<u64> {
        let mut ns = ops(&self.plain);
        ns.sort_unstable();
        ns
    }

    /// Tracing overhead as the harness sees it: traced against untraced
    /// median latency of the same operation, in percent.
    fn overhead_pct(&self) -> f64 {
        let (a, b) = (p50_us(&ops(&self.plain)), p50_us(&ops(&self.traced)));
        if a > 0.0 {
            (b - a) / a * 100.0
        } else {
            0.0
        }
    }
}

fn ops(segments: &[Segment]) -> Vec<u64> {
    segments
        .iter()
        .flat_map(|s| s.op_ns.iter().copied())
        .collect()
}

/// The probes that do not depend on the workload: pool, histogram,
/// kernels, the backend sweep and the string baselines, all on the large
/// graph. An interleaved run makes them once for all four workloads.
pub fn shared(fx: &Fixtures, baseline_queries: usize) -> Vec<Metric> {
    let mut out = Out(Vec::new());
    out.put("bench.host_calib_ms", host_calibration_ms(), "ms");
    pool_and_hist_probes(&mut out);
    kernel_probes(&mut out);
    ann_sweep(fx, &mut out);
    baseline_probes(fx, baseline_queries, &mut out);
    out.0
}

/// The traced run of one workload while it is being put together.
struct Run {
    kind: Kind,
    epoch: Instant,
    /// Length of the workload's own traced pass.
    seconds: Duration,
    /// Length of every other timed probe.
    probe: Duration,
    /// One untraced or traced slice of an alternating pass.
    slice: Duration,
    out: Out,
    tally: Tally,
    own_spans: Vec<SpanRec>,
}

impl Run {
    /// A pass over the operation of `kinds` runs for `seconds` when the
    /// workload is one of them, and for `probe` otherwise.
    fn pass(
        &self,
        kinds: &[Kind],
        segment: impl FnMut(Duration, Option<&mut Tracer>) -> io::Result<Segment>,
    ) -> io::Result<Pass> {
        let total = if kinds.contains(&self.kind) {
            self.seconds
        } else {
            self.probe
        };
        Pass::run(self.epoch, total, self.slice, segment)
    }

    /// Books a finished pass; the workload's own pass also gives the
    /// tracing overhead and the spans written to `trace.json`.
    fn settle(&mut self, kinds: &[Kind], pass: Pass) {
        for segment in pass.plain.iter().chain(&pass.traced) {
            self.tally.add(segment.tally);
        }
        if kinds.contains(&self.kind) {
            self.out
                .put("bench.trace_overhead_pct", pass.overhead_pct(), "%");
            self.own_spans = pass.spans;
        }
    }
}

/// Runs the probes of one workload and appends the `shared` ones.
/// `seconds` is spent on the workload's own traced pass; the other timed
/// probes run for `probe` each.
pub fn run(
    p: &mut Prepared<'_>,
    seconds: Duration,
    probe: Duration,
    shared: &[Metric],
    host: &HostRef,
) -> io::Result<LayerReport> {
    let mut run = Run {
        kind: p.kind,
        epoch: Instant::now(),
        seconds,
        probe,
        slice: Duration::from_millis(500).min(probe),
        out: Out(Vec::new()),
        tally: Tally::default(),
        own_spans: Vec::new(),
    };
    let mut calib = vec![host_calibration_ms()];
    let mut speed = vec![host.speed()];

    // -- core: one lookup, taken apart --------------------------------
    const SINGLES: [Kind; 2] = [Kind::SingleSmall, Kind::SingleLargeFlat];
    let pass = run.pass(&SINGLES, |d, tr| {
        Ok(p.single_segment(Duration::ZERO, d, tr))
    })?;
    let table = layer_table(&pass.spans);
    let (embed, search) = (
        span_stat(&table, "core.embed"),
        span_stat(&table, "core.index_search"),
    );
    let lookups = pass.plain_ops();
    let lookup_p50 = stats::percentile(&lookups, 50.0) / 1e3;
    let out = &mut run.out;
    out.put("core.embed_us", embed.p50_us, "us");
    out.put("core.embed_p99_us", embed.p99_us, "us");
    out.put("core.index_search_us", search.p50_us, "us");
    out.put("core.lookup_us", lookup_p50, "us");
    out.put(
        "core.lookup_p99_us",
        stats::percentile(&lookups, 99.0) / 1e3,
        "us",
    );
    out.put(
        "core.lookup_glue_us",
        lookup_p50 - embed.p50_us - search.p50_us,
        "us",
    );
    run.settle(&SINGLES, pass);

    // -- core + pool: one batch, taken apart --------------------------
    calib.push(host_calibration_ms());
    speed.push(host.speed());
    let before = emblookup_obs::global().snapshot();
    let pass = run.pass(&[Kind::BulkLarge], |d, tr| {
        Ok(p.bulk_segment(Duration::ZERO, d, tr))
    })?;
    let after = emblookup_obs::global().snapshot();
    let calls: u64 = pass
        .plain
        .iter()
        .chain(&pass.traced)
        .map(|s| s.tally.attempted)
        .sum();
    let per_call = |name: &str| {
        (after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)) as f64
            / calls.max(1) as f64
    };
    let table = layer_table(&pass.spans);
    let per_s = |span: &str| {
        let p50_us = span_stat(&table, span).p50_us;
        if p50_us > 0.0 {
            BULK_BATCH as f64 / p50_us * 1e6
        } else {
            0.0
        }
    };
    let out = &mut run.out;
    out.put("core.embed_batch_qps", per_s("core.embed_batch"), "1/s");
    out.put("core.search_batch_qps", per_s("core.search_batch"), "1/s");
    out.put(
        "core.bulk_call_ms",
        stats::percentile(&pass.plain_ops(), 50.0) / 1e6,
        "ms",
    );
    out.put("pool.tasks_per_bulk_call", per_call("pool.tasks"), "count");
    out.put("pool.steals_per_bulk_call", per_call("pool.steal"), "count");
    run.settle(&[Kind::BulkLarge], pass);

    // -- core: the sharded index the server searches ------------------
    let fx = p.fx;
    let embedded: Vec<Vec<f32>> = p.queries[..1000]
        .iter()
        .map(|q| fx.model.embed(&q.text))
        .collect();
    let sharded = p
        .sharded
        .as_ref()
        .expect("the traced pass builds every part");
    run.out.put(
        "core.shard_search_us",
        p50_ns(embedded.len(), |i| {
            std::hint::black_box(sharded.search(&embedded[i], K));
        }) / 1e3,
        "us",
    );
    let per_shard: Vec<Vec<Vec<_>>> = embedded[..200]
        .iter()
        .map(|e| {
            (0..sharded.num_shards())
                .map(|s| sharded.shard(s).search(e, K))
                .collect()
        })
        .collect();
    run.out.put(
        "core.merge_topk_us",
        batched_ns(50, per_shard.len(), |i| {
            std::hint::black_box(merge_topk(&per_shard[i % per_shard.len()], K));
        }) / 1e3,
        "us",
    );

    // -- serve --------------------------------------------------------
    calib.push(host_calibration_ms());
    speed.push(host.speed());
    serve_probes(p, &mut run)?;

    // -- the layers under the encoder, and the program's own tracing --
    calib.push(host_calibration_ms());
    speed.push(host.speed());
    encoder_probes(p, &mut run.out);
    tracing_probe(p, &mut run.out);
    calib.push(host_calibration_ms());
    speed.push(host.speed());

    let mut out = run.out;
    out.put("core.train_s", fx.train_s, "s");
    out.put("core.index_build_s", p.build_s, "s");
    out.put("kg.generate_s", fx.kg_generate_s, "s");
    for m in shared {
        if m.name == "bench.host_calib_ms" {
            calib.push(m.value);
        } else {
            out.0.push(m.clone());
        }
    }
    out.put("bench.host_calib_ms", median(&calib), "ms");
    out.put("bench.host_speed", median(&speed), "ratio");
    Ok(LayerReport {
        metrics: out.0,
        spans: run.own_spans,
        tally: run.tally,
    })
}

fn serve_probes(p: &mut Prepared<'_>, run: &mut Run) -> io::Result<()> {
    run.out.put(
        "serve.healthz_rtt_us",
        p50_us(&p.healthz_rtts(run.slice)?),
        "us",
    );

    // one connection, `/lookup` only: the request path with no contention
    let alone = run.pass(&[], |d, tr| {
        p.served_segment(Duration::ZERO, d, 1, false, tr)
    })?;
    let rtt = stats::percentile(&alone.plain_ops(), 50.0) / 1e3;
    run.out.put("serve.lookup_rtt_1conn_us", rtt, "us");

    // the workload's own mix: 2 connections, 15 lookups then 1 bulk
    const MIX: [Kind; 1] = [Kind::ServedMixed];
    let mixed = run.pass(&MIX, |d, tr| {
        p.served_segment(Duration::ZERO, d, CONNECTIONS, true, tr)
    })?;
    let lookups = mixed.plain_ops();
    let bulks: Vec<u64> = mixed
        .plain
        .iter()
        .flat_map(|s| s.bulk_ns.iter().copied())
        .collect();
    run.out.put(
        "serve.lookup_p50_us",
        stats::percentile(&lookups, 50.0) / 1e3,
        "us",
    );
    run.out.put(
        "serve.lookup_p99_us",
        stats::percentile(&lookups, 99.0) / 1e3,
        "us",
    );
    run.out
        .put("serve.bulk32_rtt_ms", p50_us(&bulks) / 1e3, "ms");

    // The client spans and the server's own stage spans are read off the
    // workload's own mix on `served_mixed`, and off the single quiet
    // connection everywhere else.
    let ledger = if run.kind == Kind::ServedMixed {
        &mixed
    } else {
        &alone
    };
    let client = layer_table(&ledger.spans);
    for part in ["write", "wait", "read"] {
        let stat = span_stat(&client, &format!("client.{part}"));
        run.out
            .put(&format!("serve.client_{part}_us"), stat.self_p50_us, "us");
    }
    run.out.put(
        "serve.client_request_us",
        span_stat(&client, "request").p50_us,
        "us",
    );
    for stage in ["admit", "decode", "encode", "search", "shard", "rank"] {
        let ns: Vec<u64> = ledger
            .traced
            .iter()
            .flat_map(|s| &s.server_stages)
            .filter(|(name, _)| name == stage)
            .map(|(_, ns)| *ns)
            .collect();
        run.out
            .put(&format!("serve.stage.{stage}_us"), p50_us(&ns), "us");
    }
    run.settle(&[], alone);
    run.settle(&MIX, mixed);

    // what the hand-off costs: the round trip minus what the same
    // request costs without a server around it
    let out = &mut run.out;
    let handoff = rtt
        - out.get("serve.healthz_rtt_us")
        - out.get("core.embed_us")
        - out.get("core.shard_search_us");
    out.put("serve.handoff_us", handoff, "us");

    let (single, bulk) = p.sample_bodies();
    for (name, body) in [("lookup", &single), ("bulk32", &bulk)] {
        let ns = batched_ns(50, 100, |_| {
            std::hint::black_box(emblookup_serve::json::parse(std::hint::black_box(body)).is_ok());
        });
        out.put(&format!("serve.json_parse_us.{name}"), ns / 1e3, "us");
    }
    for (name, value) in served_counters(p) {
        out.put(name, value as f64, "count");
    }
    Ok(())
}

/// The server-side counters that must stay at zero for a run to count.
pub fn served_counters(p: &Prepared<'_>) -> [(&'static str, u64); 3] {
    let snap = p.served.as_ref().map(|s| s.server.registry().snapshot());
    let get = |name: &str| snap.as_ref().and_then(|s| s.counter(name)).unwrap_or(0);
    [
        ("serve.shed", get("serve.shed")),
        ("serve.deadline_504", get("serve.deadline.exceeded")),
        (
            "serve.degraded",
            get("serve.degraded.flat") + get("serve.degraded.qgram"),
        ),
    ]
}

/// `text`, `embed`, `tensor`: the pieces of `EmbLookupModel::embed`, at
/// the model's shapes.
fn encoder_probes(p: &Prepared<'_>, out: &mut Out) {
    let config = p.fx.model.config();
    let texts: Vec<&str> = p.queries[..2000].iter().map(|q| q.text.as_str()).collect();
    let onehot = OneHotEncoder::new(Alphabet::default_lookup(), config.max_len);
    out.put(
        "text.onehot_us",
        p50_ns(texts.len(), |i| {
            std::hint::black_box(onehot.encode(texts[i]));
        }) / 1e3,
        "us",
    );
    let fasttext = p.fx.model.semantic();
    out.put(
        "embed.fasttext_us",
        p50_ns(texts.len(), |i| {
            std::hint::black_box(fasttext.embed(texts[i]));
        }) / 1e3,
        "us",
    );

    let mut rng = StdRng::seed_from_u64(p.fx.seed);
    let mut store = ParamStore::new();
    let (rows, cols) = onehot.shape();
    let mut in_channels = rows;
    let convs: Vec<Conv1dLayer> = (0..config.conv_layers)
        .map(|i| {
            let layer = Conv1dLayer::new(
                &mut store,
                &format!("conv{i}"),
                in_channels,
                config.kernels,
                config.kernel_size,
                &mut rng,
            );
            in_channels = config.kernels;
            layer
        })
        .collect();
    let fused = config.kernels * config.pool_segments + config.fasttext_dim;
    let fuse1 = Linear::new(&mut store, "fuse1", fused, config.fusion_hidden, &mut rng);
    let fuse2 = Linear::new(
        &mut store,
        "fuse2",
        config.fusion_hidden,
        config.embedding_dim,
        &mut rng,
    );
    let planes: Vec<Tensor> = texts[..200]
        .iter()
        .map(|t| Tensor::from_vec(&[rows, cols], onehot.encode(t)))
        .collect();
    out.put(
        "tensor.conv_stack_us",
        p50_ns(2000, |i| {
            let mut x = convs[0].infer(&store, &planes[i % planes.len()]);
            for conv in &convs[1..] {
                for v in x.data_mut() {
                    *v = v.max(0.0);
                }
                x = conv.infer(&store, &x);
            }
            std::hint::black_box(x);
        }) / 1e3,
        "us",
    );
    let fused_in = Tensor::uniform(&[fused], -1.0, 1.0, &mut rng);
    out.put(
        "tensor.mlp_us",
        p50_ns(2000, |_| {
            let mut h = fuse1.infer(&store, &fused_in);
            for v in h.data_mut() {
                *v = v.max(0.0);
            }
            std::hint::black_box(fuse2.infer(&store, &h));
        }) / 1e3,
        "us",
    );
}

/// `pool`: a round trip through the global pool with nothing to do.
/// `obs`: what one histogram record costs.
fn pool_and_hist_probes(out: &mut Out) {
    let pool = Pool::global();
    out.put(
        "pool.dispatch_us",
        p50_ns(5000, |_| {
            std::hint::black_box(pool.parallel_map(THREADS, 1, |i| i));
        }) / 1e3,
        "us",
    );
    out.put(
        "pool.scatter_us",
        p50_ns(5000, |_| {
            std::hint::black_box(pool.scatter(THREADS, |i| i));
        }) / 1e3,
        "us",
    );
    let hist = Histogram::new();
    out.put(
        "obs.hist_record_ns",
        batched_ns(100, 10_000, |i| hist.record(20_000 + i as u64)),
        "ns",
    );
}

/// `obs`: the program's own tracing, as the server uses it — one `Trace`
/// per request, a root span, the traced lookup — against the plain
/// lookup. Calls alternate so that drift cancels, on different queries
/// so that the second call does not find the first one's rows in cache.
fn tracing_probe(p: &Prepared<'_>, out: &mut Out) {
    const CALLS: usize = 2000;
    let service = p
        .service
        .as_ref()
        .expect("the traced pass builds every part");
    let (mut plain, mut traced) = (Vec::with_capacity(CALLS), Vec::with_capacity(CALLS));
    for i in 0..CALLS {
        let t = Instant::now();
        std::hint::black_box(service.lookup_with_distances(&p.queries[i].text, K));
        plain.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let trace = Trace::start(i as u64 + 1, TraceClock::real());
        let root = trace.root("lookup.request");
        std::hint::black_box(service.lookup_with_distances_traced(
            &p.queries[CALLS + i].text,
            K,
            &root,
        ));
        root.finish();
        traced.push(t.elapsed().as_nanos() as u64);
    }
    out.put(
        "obs.traced_lookup_overhead_us",
        p50_us(&traced) - p50_us(&plain),
        "us",
    );
}

/// `ann` kernels on shapes the workloads use: the flat scan's block of
/// 64-d rows, and the PQ scan's block of 8-byte codes.
fn kernel_probes(out: &mut Out) {
    const ROWS: usize = 16_384;
    const DIM: usize = 64;
    let query: Vec<f32> = (0..DIM).map(|i| (i as f32 * 0.37).sin()).collect();
    let rows: Vec<f32> = (0..ROWS * DIM).map(|i| (i as f32 * 0.11).cos()).collect();
    let mut dists = vec![0f32; ROWS];
    let ns = p50_ns(200, |_| {
        kernels::sq_l2_block(std::hint::black_box(&query), &rows, &mut dists);
        std::hint::black_box(&dists);
    });
    out.put("ann.kernel.sq_l2_block_ns_per_row", ns / ROWS as f64, "ns");

    const M: usize = 8;
    const KS: usize = 256;
    let table: Vec<f32> = (0..M * KS).map(|i| (i as f32 * 0.07).sin().abs()).collect();
    let codes: Vec<u8> = (0..ROWS * M)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 7) as u8)
        .collect();
    let ns = p50_ns(200, |_| {
        kernels::adc_block(std::hint::black_box(&table), KS, M, &codes, &mut dists);
        std::hint::black_box(&dists);
    });
    out.put("ann.kernel.adc_block_ns_per_code", ns / ROWS as f64, "ns");
}

/// `ann`: every backend over the large graph's embeddings, built and
/// searched through `emblookup_ann` directly, with the parameters
/// `emblookup_core::EntityIndex` would pass. `flat`, `pq` and `hnswpq`
/// are the backends the workloads run on; `ivf` and `hnsw` are not on
/// any workload's path and guard the structure × quantizer refactor.
fn ann_sweep(fx: &Fixtures, out: &mut Out) {
    const SEED: u64 = 0xC0DE;
    let labels: Vec<&str> = fx.kg_large.entities().map(|e| e.label.as_str()).collect();
    let mut data = VectorSet::new(fx.model.dim());
    for v in fx.model.embed_batch(&labels, THREADS) {
        data.push(&v);
    }
    let mut queries: Vec<Vec<f32>> = Vec::with_capacity(1000);
    let embed_ns = p50_ns(1000, |i| {
        queries.push(fx.model.embed(&fx.queries_large[i].text))
    });
    out.put("ann.query_embed_us", embed_ns / 1e3, "us");
    let exact = FlatIndex::new(data.clone());
    let truth: Vec<Vec<usize>> = queries
        .iter()
        .map(|q| exact.search(q, K).iter().map(|n| n.index).collect())
        .collect();

    let pq = PqConfig {
        m: 8,
        ks: 256,
        kmeans_iters: 15,
        seed: SEED,
    };
    let hnsw = HnswConfig {
        m: 16,
        ef_search: 64,
        ef_construction: 64,
        seed: SEED,
    };
    let ivf = IvfConfig {
        nlist: 128,
        nprobe: 8,
        kmeans_iters: 15,
        seed: SEED,
    };
    let mut backend = |name: &str, build: &dyn Fn() -> (Search, usize)| {
        let t = Instant::now();
        let (search, nbytes) = build();
        out.put(
            &format!("ann.{name}.build_s"),
            t.elapsed().as_secs_f64(),
            "s",
        );
        let counter = |what: &str| {
            emblookup_obs::global()
                .snapshot()
                .counter(&format!("ann.{name}.{what}"))
                .unwrap_or(0)
        };
        let (searches, visited) = (counter("searches"), counter("visited_nodes"));
        let mut overlap = 0usize;
        let ns = p50_ns(queries.len(), |i| {
            let found = search(&queries[i]);
            overlap += found.iter().filter(|n| truth[i].contains(&n.index)).count();
        });
        let searches = (counter("searches") - searches).max(1);
        out.put(&format!("ann.{name}.search_us"), ns / 1e3, "us");
        out.put(
            &format!("ann.{name}.recall_at_10"),
            overlap as f64 / (queries.len() * K) as f64,
            "ratio",
        );
        out.put(
            &format!("ann.{name}.visited_per_query"),
            (counter("visited_nodes") - visited) as f64 / searches as f64,
            "count",
        );
        out.put(&format!("ann.{name}.nbytes"), nbytes as f64, "B");
    };
    backend("flat", &|| {
        let index = FlatIndex::new(data.clone());
        let nbytes = index.nbytes();
        (Box::new(move |q: &[f32]| index.search(q, K)), nbytes)
    });
    backend("pq", &|| {
        let index = PqIndex::build(&data, pq);
        let nbytes = index.nbytes();
        (Box::new(move |q: &[f32]| index.search(q, K)), nbytes)
    });
    backend("ivf", &|| {
        let index = IvfIndex::build(data.clone(), ivf);
        let nbytes = index.nbytes();
        (Box::new(move |q: &[f32]| index.search(q, K)), nbytes)
    });
    backend("hnsw", &|| {
        let index = HnswIndex::build(data.clone(), hnsw);
        let nbytes = index.nbytes();
        (Box::new(move |q: &[f32]| index.search(q, K)), nbytes)
    });
    backend("hnswpq", &|| {
        let index = HnswPqIndex::build(&data, HnswPqConfig { hnsw, pq });
        let nbytes = index.nbytes();
        (Box::new(move |q: &[f32]| index.search(q, K)), nbytes)
    });
}

/// One backend's search, boxed so the sweep can treat all five alike.
type Search = Box<dyn Fn(&[f32]) -> Vec<Neighbor>>;

/// `baselines`: the string lookups the paper compares against, on the
/// large graph — the Table V ratio kept visible.
fn baseline_probes(fx: &Fixtures, queries: usize, out: &mut Out) {
    let kg = &fx.kg_large;
    let queries = &fx.queries_large[..queries];
    let services: [(&str, Box<dyn LookupService>); 3] = [
        (
            "levenshtein",
            Box::new(LevenshteinService::new(kg, false, 3)),
        ),
        ("qgram", Box::new(QGramService::new(kg, false, 3))),
        ("elastic", Box::new(ElasticLikeService::new(kg, false))),
    ];
    for (name, service) in services {
        let ns = p50_ns(queries.len(), |i| {
            std::hint::black_box(service.lookup(&queries[i].text, K));
        });
        out.put(&format!("baselines.{name}.lookup_us"), ns / 1e3, "us");
    }
    // the paper's EL on the same graph: one encoder pass, one PQ scan
    let emblookup_us = out.get("ann.query_embed_us") + out.get("ann.pq.search_us");
    let speedup = if emblookup_us > 0.0 {
        out.get("baselines.elastic.lookup_us") / emblookup_us
    } else {
        0.0
    };
    out.put("baselines.speedup_vs_elastic", speedup, "ratio");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_helpers_report_per_call_medians() {
        let mut calls = 0;
        let ns = p50_ns(50, |_| calls += 1);
        assert_eq!(calls, 50);
        assert!(ns >= 0.0);
        let mut calls = 0;
        let ns = batched_ns(10, 100, |_| calls += 1);
        assert_eq!(calls, 1000);
        assert!(ns >= 0.0);
        assert_eq!(p50_us(&[3000, 1000, 2000]), 2.0);
        assert_eq!(p50_us(&[]), 0.0);
    }
}
