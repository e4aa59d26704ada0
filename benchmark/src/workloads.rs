//! The four workloads: what each sets up, and how one timed segment of
//! each runs. Every workload is a closed loop — a caller sends its next
//! operation only after the previous one was answered — because the
//! system's users (table-annotation pipelines, remote callers of
//! `emblookup-serve`) wait for replies.

use crate::check::{self, Tally};
use crate::client::{build_request, Conn};
use crate::fixtures::{model_with_compression, Fixtures, Query};
use crate::hostref::HostRef;
use crate::json::{self, Val};
use crate::spans::{Tracer, ROOT};
use emblookup_ann::VectorSet;
use emblookup_core::{Compression, EmbLookup, EntityIndex, ShardedIndex};
use emblookup_kg::{EntityId, KnowledgeGraph};
use emblookup_serve::{ServeConfig, Server};
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Length of one measured slice; the host speed is sampled between
/// slices. Short against the host's regimes (seconds and longer), long
/// against an operation (30 us to 13 ms).
pub const SLICE: Duration = Duration::from_millis(100);
/// Results asked for by every operation.
pub const K: usize = 10;
/// Queries per `bulk_lookup` call in `bulk_large`.
pub const BULK_BATCH: usize = 256;
/// Pool width the run pins (`EMBLOOKUP_THREADS`): on a 2-core box the
/// default is `nproc - 1 = 1`, which silently makes the bulk path serial.
pub const THREADS: usize = 2;
/// `served_mixed`: keep-alive connections, one closed loop each.
pub const CONNECTIONS: usize = 2;
/// `served_mixed`: `POST /lookup` requests between two bulk requests.
pub const SINGLES_PER_BULK: usize = 15;
/// `served_mixed`: queries per `POST /lookup/bulk`.
pub const SERVED_BULK_BATCH: usize = 32;
/// Index shards behind the server.
pub const SHARDS: usize = 2;
/// Every n-th served response is compared against the in-process oracle.
/// Prime on purpose: the mix repeats every 16 requests, so a period of 16
/// would sample the same position of the cycle — the bulk — every time.
pub const DIFFERENTIAL_EVERY: u64 = 17;
/// In the traced pass, every n-th served request's server-side span tree
/// is fetched from `/debug/traces/<id>` (prime for the same reason).
pub const STAGE_SAMPLE_EVERY: u64 = 61;
/// The client states its patience: with the server's default 250 ms
/// budget a request that is descheduled for 125 ms on a busy host is
/// answered from a degraded rung, which the checker counts as a failure.
const DEADLINE_MS: &str = "10000";

pub const HNSW_PQ: Compression = Compression::HnswPq {
    m: 16,
    ef_search: 64,
    pq_m: 8,
    pq_ks: 256,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SingleSmall,
    SingleLargeFlat,
    BulkLarge,
    ServedMixed,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::SingleSmall,
        Kind::SingleLargeFlat,
        Kind::BulkLarge,
        Kind::ServedMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SingleSmall => "single_small",
            Kind::SingleLargeFlat => "single_large_flat",
            Kind::BulkLarge => "bulk_large",
            Kind::ServedMixed => "served_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// What one operation is, for the report.
    pub fn operation(self) -> &'static str {
        match self {
            Kind::SingleSmall | Kind::SingleLargeFlat => "lookup_with_distances(q, 10)",
            Kind::BulkLarge => "bulk_lookup(256 queries, 10)",
            Kind::ServedMixed => "POST /lookup (bulk requests count towards qps)",
        }
    }

    pub fn compression(self) -> Compression {
        match self {
            Kind::SingleSmall => Compression::default_pq(),
            Kind::SingleLargeFlat => Compression::None,
            Kind::BulkLarge | Kind::ServedMixed => HNSW_PQ,
        }
    }

    /// Threads the workload keeps busy, in its build and in its run: the
    /// host speed is sampled on as many, because the vCPUs of a shared
    /// host are slowed independently of each other.
    pub fn busy_threads(self) -> usize {
        match self {
            Kind::SingleSmall | Kind::SingleLargeFlat => 1,
            Kind::BulkLarge | Kind::ServedMixed => THREADS,
        }
    }

    fn uses_large_graph(self) -> bool {
        self != Kind::SingleSmall
    }

    /// The graph this workload runs on, and its query stream.
    fn graph(self, fx: &Fixtures) -> (&KnowledgeGraph, &[Query]) {
        if self.uses_large_graph() {
            (&fx.kg_large, &fx.queries_large)
        } else {
            (&fx.kg_small, &fx.queries_small)
        }
    }
}

/// A running server and the pre-built requests of the load generator.
pub struct Served {
    pub server: Arc<Server>,
    pub addr: SocketAddr,
    requests: Arc<Requests>,
    /// Per connection: next single query, next bulk body, position in
    /// the 15-singles-then-1-bulk cycle, requests sent so far.
    cursors: Vec<ConnCursor>,
}

/// Every request the generator can send, serialized before timing starts.
struct Requests {
    singles: Vec<Vec<u8>>,
    bulks: Vec<Vec<u8>>,
    healthz: Vec<u8>,
}

impl Served {
    /// A second generator against the same server, with its own cursors.
    fn share(&self) -> Served {
        Served {
            server: Arc::clone(&self.server),
            addr: self.addr,
            requests: Arc::clone(&self.requests),
            cursors: fresh_cursors(&self.requests),
        }
    }
}

fn fresh_cursors(requests: &Requests) -> Vec<ConnCursor> {
    (0..CONNECTIONS)
        .map(|c| ConnCursor {
            single: c * requests.singles.len() / CONNECTIONS,
            bulk: c * requests.bulks.len() / CONNECTIONS,
            ..ConnCursor::default()
        })
        .collect()
}

#[derive(Clone, Copy, Default)]
struct ConnCursor {
    single: usize,
    bulk: usize,
    cycle: usize,
    sent: u64,
}

/// One workload, set up and ready to run segments.
pub struct Prepared<'f> {
    pub kind: Kind,
    pub fx: &'f Fixtures,
    pub queries: &'f [Query],
    /// The in-process service (absent for an untraced `served_mixed`).
    pub service: Option<Arc<EmbLookup>>,
    /// The in-process twin of the server's sharded index: the oracle of
    /// the served differential check.
    pub sharded: Option<Arc<ShardedIndex>>,
    pub served: Option<Served>,
    /// Exact flat index over the same embeddings, for `recall_at_10`.
    pub exact: EntityIndex,
    /// Seconds of set-up that belong to this workload (index build, or
    /// index build plus server start), on top of the shared training.
    pub build_s: f64,
    /// Host speed during those seconds: the mean of a burst of the
    /// reference before and one after, on as many threads as the build
    /// keeps busy.
    pub build_host_speed: f64,
    cursor: usize,
    next_request: u64,
}

/// What one segment measured.
#[derive(Default)]
pub struct Segment {
    /// Latency of each main operation, nanoseconds.
    pub op_ns: Vec<u64>,
    /// `served_mixed`: latency of each bulk request, nanoseconds.
    pub bulk_ns: Vec<u64>,
    /// Queries answered and verified inside the measured window.
    pub queries: u64,
    pub measured_s: f64,
    pub tally: Tally,
    /// Host speed while the segment ran (see `hostref`): the mean of
    /// the reference samples taken just before and just after it; 0.0
    /// when nobody sampled.
    pub host_speed: f64,
    /// Traced served pass: `(stage name, nanoseconds)` read from the
    /// server's own span trees.
    pub server_stages: Vec<(String, u64)>,
}

impl Segment {
    pub fn qps(&self) -> f64 {
        if self.measured_s > 0.0 {
            self.queries as f64 / self.measured_s
        } else {
            0.0
        }
    }
}

/// Seconds from the start of the measured window to the completion of
/// the operation that started at `t0` and took `ns`: a closed loop's
/// throughput is counted over the time its counted operations took, not
/// over the nominal segment length.
fn window_s(measured_from: Instant, t0: Instant, ns: u64) -> f64 {
    (t0 - measured_from).as_secs_f64() + ns as f64 / 1e9
}

/// A dependent ALU chain of fixed length (≈4 ms): unlike the workloads
/// and the `hostref` kernels it touches no memory and keeps one port
/// busy, so it moves with CPU steal and clock speed but not with cache,
/// memory or sibling-thread contention. A per-layer qualifier only.
pub fn host_calibration_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..2_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        shards: SHARDS,
        queue_cap: 64,
        ..ServeConfig::default()
    }
}

/// Starts the server: what a user of the served workload waits for.
fn start_server(
    fx: &Fixtures,
    kg: &KnowledgeGraph,
    compression: Compression,
) -> io::Result<Arc<Server>> {
    // The server shards with the compression named in the model's
    // configuration; the front service's own index is only consulted at
    // `shards = 1`, so the cheapest one (flat) is handed in.
    let model = model_with_compression(&fx.model, compression);
    let front = EmbLookup::from_model(model, kg, Compression::None);
    Ok(Arc::new(Server::start(front, kg, serve_config())?))
}

impl Served {
    /// The load generator for `server`: every request it will send is
    /// serialized here, before any timing starts.
    fn new(server: Arc<Server>, queries: &[Query]) -> Served {
        let headers = [
            ("content-type", "application/json"),
            ("x-emblookup-deadline-ms", DEADLINE_MS),
        ];
        let singles = queries
            .iter()
            .map(|q| {
                let body = json::Object::new()
                    .str("q", &q.text)
                    .int("k", K as u64)
                    .finish();
                build_request("POST", "/lookup", &headers, &body)
            })
            .collect();
        let bulks = queries
            .chunks_exact(SERVED_BULK_BATCH)
            .map(|chunk| {
                let texts = json::array(chunk.iter().map(|q| json::string(&q.text)));
                let body = json::Object::new()
                    .raw("queries", &texts)
                    .int("k", K as u64)
                    .finish();
                build_request("POST", "/lookup/bulk", &headers, &body)
            })
            .collect();
        let requests = Requests {
            singles,
            bulks,
            healthz: build_request("GET", "/healthz", &[], ""),
        };
        let cursors = fresh_cursors(&requests);
        Served {
            addr: server.addr(),
            server,
            requests: Arc::new(requests),
            cursors,
        }
    }
}

/// Sets a workload up. The timed part is what a user of that workload
/// pays: the index build for the in-process ones, index build plus
/// server start for the served one. The checker's own fixtures (the
/// exact index, the served oracle) are built after the clock stops.
pub fn prepare<'f>(kind: Kind, fx: &'f Fixtures, host: &HostRef) -> io::Result<Prepared<'f>> {
    let (kg, queries) = kind.graph(fx);
    let compression = kind.compression();
    let speed_before = host.burst_on(kind.busy_threads());
    let t = Instant::now();
    let (mut service, mut server) = (None, None);
    if kind == Kind::ServedMixed {
        server = Some(start_server(fx, kg, compression)?);
    } else {
        service = Some(Arc::new(EmbLookup::from_model(
            fx.model.clone(),
            kg,
            compression,
        )));
    }
    let build_s = t.elapsed().as_secs_f64();
    let build_host_speed = (speed_before + host.burst_on(kind.busy_threads())) / 2.0;
    let served = server.map(|server| Served::new(server, queries));

    let exact = EntityIndex::build(&fx.model, kg, Compression::None, THREADS);
    let sharded = served.is_some().then(|| {
        Arc::new(ShardedIndex::build(
            &fx.model,
            kg,
            compression,
            SHARDS,
            THREADS,
        ))
    });
    Ok(Prepared {
        kind,
        fx,
        queries,
        service,
        sharded,
        served,
        exact,
        build_s,
        build_host_speed,
        cursor: 0,
        next_request: 0,
    })
}

/// Gives every workload the parts the traced pass probes — an in-process
/// service, the sharded twin and a server, all on the workload's own
/// graph and index. Workloads over the same graph and index share them;
/// what nobody has yet is built here, untimed.
pub fn complete(all: &mut [Prepared<'_>]) -> io::Result<()> {
    for i in 0..all.len() {
        let kind = all[i].kind;
        let (kg, queries) = kind.graph(all[i].fx);
        let fx = all[i].fx;
        let same = |p: &&Prepared<'_>| {
            p.kind.compression() == kind.compression()
                && p.kind.uses_large_graph() == kind.uses_large_graph()
        };
        if all[i].service.is_none() {
            let donated = all.iter().filter(same).find_map(|p| p.service.clone());
            all[i].service = Some(donated.unwrap_or_else(|| {
                Arc::new(EmbLookup::from_model(
                    fx.model.clone(),
                    kg,
                    kind.compression(),
                ))
            }));
        }
        if all[i].sharded.is_none() {
            let donated = all.iter().filter(same).find_map(|p| p.sharded.clone());
            all[i].sharded = Some(donated.unwrap_or_else(|| {
                Arc::new(ShardedIndex::build(
                    &fx.model,
                    kg,
                    kind.compression(),
                    SHARDS,
                    THREADS,
                ))
            }));
        }
        if all[i].served.is_none() {
            let donated = all
                .iter()
                .filter(same)
                .find_map(|p| p.served.as_ref().map(Served::share));
            all[i].served = Some(match donated {
                Some(served) => served,
                None => Served::new(start_server(fx, kg, kind.compression())?, queries),
            });
        }
    }
    Ok(())
}

/// `hit_at_10` and `recall_at_10` over the first `n` queries.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    pub hit_at_10: f64,
    pub recall_at_10: f64,
    pub n: usize,
}

impl Prepared<'_> {
    /// Set-up time a user of this workload waits for, as measured.
    pub fn setup_raw_s(&self) -> f64 {
        self.fx.kg_generate_s + self.fx.train_s + self.build_s
    }

    /// The same, host-adjusted: each of its two phases (shared training,
    /// this workload's build) times the host speed measured around it.
    pub fn setup_s(&self) -> f64 {
        (self.fx.kg_generate_s + self.fx.train_s) * self.fx.host_speed
            + self.build_s * self.build_host_speed
    }

    /// `index().nbytes() / len()`, summed over shards when served.
    pub fn index_bytes_per_entity(&self) -> f64 {
        match (self.kind, &self.sharded, &self.service) {
            (Kind::ServedMixed, Some(sharded), _) => {
                let bytes: usize = (0..sharded.num_shards())
                    .map(|s| sharded.shard(s).nbytes())
                    .sum();
                bytes as f64 / sharded.len() as f64
            }
            (_, _, Some(service)) => service.index().nbytes() as f64 / service.index().len() as f64,
            _ => 0.0,
        }
    }

    /// The index search this workload's answers come from, in process.
    pub fn search(&self, emb: &[f32]) -> Vec<(EntityId, f32)> {
        match (self.kind, &self.sharded, &self.service) {
            (Kind::ServedMixed, Some(sharded), _) => sharded.search(emb, K),
            (_, _, Some(service)) => service.index().search(emb, K),
            _ => Vec::new(),
        }
    }

    /// Untimed quality pass: the share of queries whose gold entity is
    /// in the top 10, and the overlap with the exact flat index on the
    /// same embedded query.
    pub fn quality(&self, n: usize) -> Quality {
        let n = n.min(self.queries.len());
        let (mut hits, mut overlap) = (0usize, 0usize);
        for q in &self.queries[..n] {
            let emb = self.fx.model.embed(&q.text);
            let got = self.search(&emb);
            let want = self.exact.search(&emb, K);
            hits += usize::from(got.iter().any(|(id, _)| *id == q.gold));
            overlap += got
                .iter()
                .filter(|(id, _)| want.iter().any(|(w, _)| w == id))
                .count();
        }
        Quality {
            hit_at_10: hits as f64 / n as f64,
            recall_at_10: overlap as f64 / (n * K) as f64,
            n,
        }
    }

    /// Runs one segment of this workload: `lead_in` unmeasured, then
    /// `measure` measured. With a tracer the harness makes the same
    /// calls one layer lower and records a span around each.
    pub fn segment(
        &mut self,
        lead_in: Duration,
        measure: Duration,
        tracer: Option<&mut Tracer>,
    ) -> io::Result<Segment> {
        Ok(match self.kind {
            Kind::SingleSmall | Kind::SingleLargeFlat => {
                self.single_segment(lead_in, measure, tracer)
            }
            Kind::BulkLarge => self.bulk_segment(lead_in, measure, tracer),
            Kind::ServedMixed => {
                self.served_segment(lead_in, measure, CONNECTIONS, true, tracer)?
            }
        })
    }

    /// `total` seconds of this workload, untraced, in slices of `SLICE`
    /// with a sample of the host speed between every two: the unit the
    /// host-adjusted metrics are folded from.
    ///
    /// The served workload keeps its connections open across the slices:
    /// between two of them the server's threads then sit in `read`, and
    /// the reference is not timed against connections being torn down.
    pub fn measure(&mut self, total: Duration, host: &HostRef) -> io::Result<Vec<Segment>> {
        let mut conns = match self.kind {
            Kind::ServedMixed => self.open_connections(CONNECTIONS)?,
            _ => Vec::new(),
        };
        let end = Instant::now() + total;
        let mut slices = Vec::new();
        let width = self.kind.busy_threads();
        let mut before = host.speed_on(width);
        while Instant::now() < end {
            let mut seg = match self.kind {
                Kind::ServedMixed => {
                    self.served_on(&mut conns, Duration::ZERO, SLICE, true, None)?
                }
                _ => self.segment(Duration::ZERO, SLICE, None)?,
            };
            let after = host.speed_on(width);
            seg.host_speed = (before + after) / 2.0;
            before = after;
            slices.push(seg);
        }
        Ok(slices)
    }

    /// One caller, one lookup at a time.
    pub fn single_segment(
        &mut self,
        lead_in: Duration,
        measure: Duration,
        mut tracer: Option<&mut Tracer>,
    ) -> Segment {
        let service = self
            .service
            .as_ref()
            .expect("in-process workloads own a service");
        let mut seg = Segment {
            op_ns: Vec::with_capacity(1 << 12),
            ..Segment::default()
        };
        let measured_from = Instant::now() + lead_in;
        let end = measured_from + measure;
        loop {
            let q = &self.queries[self.cursor % self.queries.len()];
            self.cursor += 1;
            let t0 = Instant::now();
            if t0 >= end {
                break;
            }
            let hits = match tracer.as_deref_mut() {
                None => service.lookup_with_distances(&q.text, K),
                Some(tr) => {
                    let id = self.next_request;
                    self.next_request += 1;
                    let req = tr.begin("request", ROOT, id);
                    let emb = tr.scope("core.embed", req, id, || service.model().embed(&q.text));
                    let hits = tr.scope("core.index_search", req, id, || {
                        service.index().search(&emb, K)
                    });
                    tr.end(req);
                    hits
                }
            };
            let ns = t0.elapsed().as_nanos() as u64;
            if t0 >= measured_from {
                seg.measured_s = window_s(measured_from, t0, ns);
                seg.op_ns.push(ns);
                seg.tally.attempted += 1;
                if check::valid_hits(&hits, K) {
                    seg.queries += 1;
                } else {
                    seg.tally.failed += 1;
                }
            }
        }
        seg
    }

    /// One caller handing 256 queries at a time to the batch path.
    pub fn bulk_segment(
        &mut self,
        lead_in: Duration,
        measure: Duration,
        mut tracer: Option<&mut Tracer>,
    ) -> Segment {
        let service = self
            .service
            .as_ref()
            .expect("in-process workloads own a service");
        let mut seg = Segment::default();
        let measured_from = Instant::now() + lead_in;
        let end = measured_from + measure;
        let n = self.queries.len();
        loop {
            let batch: Vec<&str> = (0..BULK_BATCH)
                .map(|i| self.queries[(self.cursor + i) % n].text.as_str())
                .collect();
            self.cursor += BULK_BATCH;
            let t0 = Instant::now();
            if t0 >= end {
                break;
            }
            let answers = match tracer.as_deref_mut() {
                None => service.bulk_lookup(&batch, K),
                Some(tr) => {
                    let id = self.next_request;
                    self.next_request += 1;
                    let req = tr.begin("request", ROOT, id);
                    let embs = tr.scope("core.embed_batch", req, id, || {
                        service.model().embed_batch(&batch, THREADS)
                    });
                    let mut qs = VectorSet::new(service.model().dim());
                    for e in &embs {
                        qs.push(e);
                    }
                    let answers = tr.scope("core.search_batch", req, id, || {
                        service.index().search_batch(&qs, K, THREADS)
                    });
                    tr.end(req);
                    answers
                }
            };
            let ns = t0.elapsed().as_nanos() as u64;
            if t0 >= measured_from {
                seg.measured_s = window_s(measured_from, t0, ns);
                seg.op_ns.push(ns);
                seg.tally.attempted += 1;
                if answers.len() == BULK_BATCH
                    && answers.iter().all(|hits| check::valid_hits(hits, K))
                {
                    seg.queries += BULK_BATCH as u64;
                } else {
                    seg.tally.failed += 1;
                }
            }
        }
        seg
    }

    /// `connections` keep-alive connections against the server, each a
    /// closed loop. With `mixed` a connection repeats 15 × `POST /lookup`
    /// then 1 × `POST /lookup/bulk`; without, only `POST /lookup`.
    /// The connections are opened here and closed when the segment ends:
    /// the server closes a keep-alive connection that idles for 2 s,
    /// which segments of an interleaved run are apart.
    pub fn served_segment(
        &mut self,
        lead_in: Duration,
        measure: Duration,
        connections: usize,
        mixed: bool,
        tracer: Option<&mut Tracer>,
    ) -> io::Result<Segment> {
        let mut conns = self.open_connections(connections)?;
        self.served_on(&mut conns, lead_in, measure, mixed, tracer)
    }

    fn open_connections(&self, connections: usize) -> io::Result<Vec<Conn>> {
        let served = self.served.as_ref().expect("served workloads own a server");
        (0..connections).map(|_| Conn::open(served.addr)).collect()
    }

    /// One served segment on connections the caller keeps open.
    fn served_on(
        &mut self,
        conns: &mut [Conn],
        lead_in: Duration,
        measure: Duration,
        mixed: bool,
        tracer: Option<&mut Tracer>,
    ) -> io::Result<Segment> {
        let connections = conns.len();
        let served = self.served.as_mut().expect("served workloads own a server");
        let sharded = self
            .sharded
            .as_ref()
            .expect("served workloads own an oracle");
        let (queries, model) = (self.queries, &self.fx.model);
        let all_shards = format!("{SHARDS}/{SHARDS}");
        let epoch = tracer.as_ref().map(|t| t.epoch());
        let barrier = Barrier::new(connections);
        let mix = Mix {
            requests: &served.requests,
            all_shards: &all_shards,
            mixed,
            connections,
            lead_in,
            measure,
            epoch,
            barrier: &barrier,
        };
        let cursors = &mut served.cursors[..connections];
        let parts: Vec<io::Result<ConnectionOutcome>> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(cursors.iter_mut())
                .enumerate()
                .map(|(c, (conn, cursor))| {
                    let mix = &mix;
                    scope.spawn(move || mix.drive(c, conn, cursor))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a load-generator thread panicked"))
                .collect()
        });
        let mut seg = Segment::default();
        let mut tracer = tracer;
        for part in parts {
            let (part, part_tracer, samples) = part?;
            seg.op_ns.extend(part.op_ns);
            seg.bulk_ns.extend(part.bulk_ns);
            seg.queries += part.queries;
            seg.measured_s = seg.measured_s.max(part.measured_s);
            seg.tally.add(part.tally);
            seg.server_stages.extend(part.server_stages);
            if let (Some(into), Some(from)) = (tracer.as_deref_mut(), part_tracer) {
                into.absorb(from);
            }
            // The differential check, after the segment and off the
            // timed path: sampled answers must carry exactly the ids the
            // in-process sharded index returns.
            for sample in samples {
                seg.tally.compared += 1;
                let same = sample.ids.iter().enumerate().all(|(i, ids)| {
                    let emb = model.embed(&queries[sample.first_query + i].text);
                    let want = sharded.search(&emb, K);
                    want.len() == ids.len() && want.iter().zip(ids).all(|((w, _), got)| w.0 == *got)
                });
                if !same {
                    seg.tally.failed += 1;
                    eprintln!("served answer differs from the in-process oracle");
                }
            }
        }
        Ok(seg)
    }

    /// Round trips of `GET /healthz` on one connection for `measure`:
    /// framing and socket cost with no pool hand-off behind it.
    pub fn healthz_rtts(&mut self, measure: Duration) -> io::Result<Vec<u64>> {
        let served = self.served.as_ref().expect("served workloads own a server");
        let mut conn = Conn::open(served.addr)?;
        let mut rtts = Vec::with_capacity(1 << 14);
        let end = Instant::now() + measure;
        loop {
            let t0 = Instant::now();
            if t0 >= end {
                return Ok(rtts);
            }
            conn.roundtrip(&served.requests.healthz)?;
            if conn.status != 200 {
                return Err(io::Error::other("healthz did not answer 200"));
            }
            rtts.push(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Bodies of one `/lookup` and one 32-query `/lookup/bulk` request,
    /// for timing `emblookup_serve::json::parse` on what the server parses.
    pub fn sample_bodies(&self) -> (String, String) {
        let q = &self.queries[0].text;
        let single = json::Object::new().str("q", q).int("k", K as u64).finish();
        let texts = json::array(
            self.queries[..SERVED_BULK_BATCH]
                .iter()
                .map(|q| json::string(&q.text)),
        );
        let bulk = json::Object::new()
            .raw("queries", &texts)
            .int("k", K as u64)
            .finish();
        (single, bulk)
    }
}

/// What every connection of one served segment shares.
struct Mix<'a> {
    requests: &'a Requests,
    /// `x-emblookup-shards` of an answer assembled from every shard.
    all_shards: &'a str,
    /// 15 singles then 1 bulk, or singles only.
    mixed: bool,
    connections: usize,
    lead_in: Duration,
    measure: Duration,
    /// Set when the segment is traced: the epoch of its span logs.
    epoch: Option<Instant>,
    barrier: &'a Barrier,
}

impl Mix<'_> {
    /// The closed loop of connection `c`: send, wait, read, verify, repeat.
    fn drive(
        &self,
        c: usize,
        conn: &mut Conn,
        cursor: &mut ConnCursor,
    ) -> io::Result<ConnectionOutcome> {
        let (singles, bulks) = (&self.requests.singles, &self.requests.bulks);
        let mut tracer = self.epoch.map(Tracer::new);
        let mut seg = Segment::default();
        let mut samples = Vec::new();
        self.barrier.wait();
        let measured_from = Instant::now() + self.lead_in;
        let end = measured_from + self.measure;
        loop {
            let bulk = self.mixed && cursor.cycle == SINGLES_PER_BULK;
            let (request, first_query, lists) = if bulk {
                let b = cursor.bulk % bulks.len();
                (&bulks[b], b * SERVED_BULK_BATCH, SERVED_BULK_BATCH)
            } else {
                let s = cursor.single % singles.len();
                (&singles[s], s, 1)
            };
            let t0 = Instant::now();
            if t0 >= end {
                return Ok((seg, tracer, samples));
            }
            if bulk {
                cursor.bulk += 1;
                cursor.cycle = 0;
            } else {
                cursor.single += 1;
                cursor.cycle += 1;
            }
            cursor.sent += 1;
            let io = match tracer.as_mut() {
                None => conn.roundtrip(request),
                Some(tr) => {
                    // request ids interleave the connections
                    let id = cursor.sent * self.connections as u64 + c as u64;
                    let req = tr.begin("request", ROOT, id);
                    let mut io = tr.scope("client.write", req, id, || conn.send(request));
                    if io.is_ok() {
                        io = tr.scope("client.wait", req, id, || conn.wait());
                    }
                    if io.is_ok() {
                        io = tr.scope("client.read", req, id, || conn.read_response());
                    }
                    tr.end(req);
                    io
                }
            };
            let ns = t0.elapsed().as_nanos() as u64;
            let answer = io.map_err(|_| "i/o error").and_then(|()| {
                let (status, shards) = (conn.status, conn.shards.as_str());
                check::served_answer(
                    status,
                    shards,
                    self.all_shards,
                    conn.body_str(),
                    lists,
                    K,
                    bulk,
                )
            });
            if tracer.is_some() && cursor.sent.is_multiple_of(STAGE_SAMPLE_EVERY) {
                fetch_stages(conn, &mut seg.server_stages)?;
            }
            if t0 < measured_from {
                continue;
            }
            seg.measured_s = window_s(measured_from, t0, ns);
            seg.tally.attempted += 1;
            match answer {
                Ok(ids) => {
                    if bulk {
                        seg.bulk_ns.push(ns);
                    } else {
                        seg.op_ns.push(ns);
                    }
                    seg.queries += lists as u64;
                    if cursor.sent.is_multiple_of(DIFFERENTIAL_EVERY) {
                        samples.push(Sample { first_query, ids });
                    }
                }
                Err(why) => {
                    seg.tally.failed += 1;
                    eprintln!("served request failed: {why}");
                }
            }
        }
    }
}

/// What one connection's thread hands back: its share of the segment,
/// its span log when tracing, and the answers kept for the oracle.
type ConnectionOutcome = (Segment, Option<Tracer>, Vec<Sample>);

/// A served answer kept for the differential check: the ids of each
/// result list, and the index of the first query it answers.
struct Sample {
    first_query: usize,
    ids: Vec<Vec<u32>>,
}

/// Reads the server's own span tree of the last request on `conn` and
/// appends `(stage name, duration)` for every `stage.*` span.
fn fetch_stages(conn: &mut Conn, out: &mut Vec<(String, u64)>) -> io::Result<()> {
    let path = format!("/debug/traces/{}", conn.trace_id);
    conn.roundtrip(&build_request("GET", &path, &[], ""))?;
    let Some(doc) = json::parse(conn.body_str()) else {
        return Ok(());
    };
    let spans = doc
        .get("trace")
        .and_then(|t| t.get("spans"))
        .and_then(Val::as_arr)
        .unwrap_or(&[]);
    for span in spans {
        let name = span.get("name").and_then(Val::as_str).unwrap_or("");
        if let (Some(stage), Some(dur)) = (
            name.strip_prefix("stage."),
            span.get("dur_ns").and_then(Val::as_f64),
        ) {
            out.push((stage.to_string(), dur as u64));
        }
    }
    Ok(())
}
