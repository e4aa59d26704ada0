//! The hardened HTTP server: admission control, deadlines, the
//! degradation ladder, and per-request panic containment.
//!
//! ## Threading model
//!
//! The accept thread only accepts: each TCP connection gets its own
//! connection thread that reads HTTP/1.1 keep-alive requests in order
//! through the connection's one read buffer (pipelining-safe: what the
//! buffer holds beyond a request's body is the next request — see
//! `http.rs`; `TCP_NODELAY` is set, so a pipelined response
//! never waits on the client's delayed ACK) and **runs each request
//! itself** — there is one thread kind per request and no hand-off.
//! Tiny control-plane GETs (`/healthz`, `/metrics`, `/debug/traces*`)
//! are answered at once, so they can never be shed behind data-plane
//! load. A `POST` first passes the admission gate (`gate.rs`): at most
//! `ServeConfig::workers` requests compute at once, at most
//! `ServeConfig::queue_cap` wait for a slot, and the rest are answered
//! `429` with a deterministically jittered `Retry-After` — load is shed
//! at the door, not buffered into an unbounded backlog. The wait is the
//! request's `stage.admit` span and is charged to its deadline. Which
//! waiting connection gets the next free slot is unspecified; responses
//! stay in request order per connection by construction, because the
//! thread that read a request writes its response before reading the
//! next.
//!
//! Request indices are assigned in arrival order under the `seq`
//! counter — the anchor for deterministic fault replay. The only pool
//! the serving tier touches is the global compute pool, and only for
//! batches: a bulk's embedding pass and its scatter over the shards.
//! A `/lookup`'s shard searches are too small to be worth a pool task
//! and run on the connection thread (next section).
//!
//! ## Sharding, breakers, and the overload pin
//!
//! The full rung always searches one [`ShardedIndex`], through one
//! function (`scatter_shards`). At `ServeConfig::shards <= 1` that is
//! the caller's own index as a single shard; above, the entity set is
//! hash-partitioned at startup. Every request scatter-gathers the live
//! shards, each under a private slice of the request's remaining
//! deadline budget, and merges per-shard top-k deterministically
//! (`total_cmp`, ties on entity id). Where the attempts run follows
//! from how much work they hold: a pool task must hold at least eight
//! index searches, so a `/lookup` (one search per shard) runs its
//! shards back to back on its own thread until there are more than
//! eight of them, while a bulk of 32 is one pool task per shard, and
//! each attempt searches its batch with `search_batch` on its share of
//! the pool's width. Either way every attempt has its own panic
//! containment and its own clock, started when the attempt starts.
//!
//! Which shards a request attempts, and whether `/lookup` is pinned to
//! the ladder's string rung, is the service's health (`health.rs`): one
//! value behind one mutex, read at admission and changed only by
//! recording outcomes. A shard's breaker ejects it after consecutive
//! failures and lets one probe request try it back in; every answer that
//! consulted the shards carries `x-emblookup-shards: k/N`, `k < N` when
//! it was assembled from a strict subset. The overload pin watches
//! consecutive `/lookup` deadline misses and pins sustained overload to
//! the string rung — cheap answers beat timeouts — with periodic
//! full-pipeline probes to unpin. The rung itself keeps no state between
//! requests: it follows from each request's remaining budget
//! (`FLAT_FRAC`, `QGRAM_FRAC`).
//!
//! ## Request lifecycle
//!
//! Every admitted request resolves to exactly one of `200`, `400`,
//! `500` (contained panic), or `504` (deadline); rejected requests get
//! `429`. The handler body runs under `catch_unwind`, so a panicking
//! backend costs one response, never the process.
//!
//! ## Tracing
//!
//! A [`Trace`] is minted per request on arrival (id from the
//! `x-emblookup-trace-id` header or derived from the request index) and
//! threaded explicitly through the handler: every stage gets a child
//! span, and the full-rung search hangs one `stage.shard` span per
//! attempted shard under `stage.search` (a `/lookup`'s carry the ANN
//! backend's `backend` / `visited`, a bulk's its `queries`). Every
//! completed tree is published to the trace store (`traces.rs`) before
//! its response is written; slow / shed / degraded / errored / panicked
//! ones are also retained there for `GET /debug/traces`. Under the
//! virtual-time fault harness the trace clock shares the deadline
//! clock's nanosecond counter, so captured durations are deterministic.

use crate::faults::{DeadlineClock, FaultLayer, Stage, StageFaults};
use crate::gate::Gate;
use crate::health::{Change, Health, Outcome};
use crate::http::{read_request, write_response, Request, Response};
use crate::json::{self, Json};
use crate::ladder::{Ladder, Rung};
use crate::traces::{Traces, Trigger};
use crate::ServeConfig;
use emblookup_ann::VectorSet;
use emblookup_core::{merge_topk, EmbLookup, EmbLookupModel, EntityIndex, ShardedIndex};
use emblookup_kg::{EntityId, KnowledgeGraph};
use emblookup_obs::names;
use emblookup_obs::sync::{Flag, RelaxedU64};
use emblookup_obs::{
    escape_json, format_trace_id, parse_trace_id, trace_id_from_index, AnnoValue, Counter, Gauge,
    Histogram, MetricsRegistry, Trace, TraceClock, TraceData, TraceSpan,
};
use emblookup_pool::Pool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Below this fraction of remaining budget the full PQ/ANN rung is
/// skipped in favour of exact flat search.
const FLAT_FRAC: f64 = 0.5;
/// Below this fraction even encoding is skipped; the q-gram string
/// rung answers directly.
const QGRAM_FRAC: f64 = 0.15;
/// Upper clamp on client-requested deadlines, in milliseconds.
const MAX_DEADLINE_MS: u64 = 10_000;
/// Consecutive failed attempts (deadline miss / error / panic) that open
/// a shard's circuit breaker.
pub(crate) const BREAKER_THRESHOLD: u32 = 3;
/// Requests an open breaker waits before one request probes the shard.
pub(crate) const BREAKER_COOLDOWN: u64 = 8;
/// Consecutive full-pipeline `/lookup` deadline misses that pin the
/// service to the q-gram rung.
pub(crate) const OVERLOAD_THRESHOLD: u32 = 3;
/// Every this-many-th request after pinning retries the full pipeline;
/// one that beats its deadline unpins.
pub(crate) const OVERLOAD_PROBE_INTERVAL: u64 = 4;
/// Cap on request bodies.
const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Upper clamp on requested `k`.
const MAX_K: u64 = 100;
/// Entities covered by the flat and q-gram fallback rungs.
const FALLBACK_CAP: usize = 1024;
/// Maximum queries per bulk request.
const MAX_BULK: usize = 1024;
/// Socket read timeout, in milliseconds.
const READ_TIMEOUT_MS: u64 = 2000;
/// Base `Retry-After` for shed responses, in milliseconds; the actual
/// value is jittered deterministically over `[base/2, 3*base/2]`.
const RETRY_AFTER_MS: u64 = 1000;
/// Seed for the shed-retry jitter stream.
const RETRY_JITTER_SEED: u64 = 0xEB10;
/// The shard fan-out's grain, in index searches: a pool task must hold
/// at least this many or the shards run back to back on the request's
/// own thread. Handing a task to the pool costs two thread wake-ups (the
/// worker's, then the waiting submitter's), measured at ~20 µs each on
/// the benchmark host (loopback ping-pong 46 µs across vCPUs, 5–8 µs on
/// one), against ~35 µs for one shard search on the 19k-entity tier — so
/// a two-shard `/lookup` sent through the pool spent 101 µs around two
/// 41 µs searches and gained no parallelism. Eight searches (~280 µs)
/// is where a task's work clearly outweighs the ~40 µs of waking.
const MIN_SEARCHES_PER_TASK: usize = 8;

/// Eagerly-created handles for every `serve.*` metric, so `/metrics`
/// exports the full family (at zero) from the first scrape.
struct ServeMetrics {
    requests: Arc<Counter>,
    admitted: Arc<Counter>,
    shed: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    latency: Arc<Histogram>,
    errors: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    degraded_flat: Arc<Counter>,
    degraded_qgram: Arc<Counter>,
    panics: Arc<Counter>,
    connections: Arc<Counter>,
    shards_live: Arc<Gauge>,
    partial: Arc<Counter>,
    breaker_opened: Arc<Counter>,
    breaker_probes: Arc<Counter>,
    breaker_readmitted: Arc<Counter>,
    overload_pinned: Arc<Counter>,
}

impl ServeMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        ServeMetrics {
            requests: registry.counter(names::SERVE_REQUESTS),
            admitted: registry.counter(names::SERVE_ADMITTED),
            shed: registry.counter(names::SERVE_SHED),
            queue_depth: registry.gauge(names::SERVE_QUEUE_DEPTH),
            latency: registry.histogram(names::SERVE_LATENCY),
            errors: registry.counter(names::SERVE_ERRORS),
            deadline_exceeded: registry.counter(names::SERVE_DEADLINE_EXCEEDED),
            degraded_flat: registry.counter(names::SERVE_DEGRADED_FLAT),
            degraded_qgram: registry.counter(names::SERVE_DEGRADED_QGRAM),
            panics: registry.counter(names::SERVE_PANICS),
            connections: registry.counter(names::SERVE_CONNECTIONS),
            shards_live: registry.gauge(names::SERVE_SHARDS_LIVE),
            partial: registry.counter(names::SERVE_PARTIAL),
            breaker_opened: registry.counter(names::SERVE_BREAKER_OPENED),
            breaker_probes: registry.counter(names::SERVE_BREAKER_PROBES),
            breaker_readmitted: registry.counter(names::SERVE_BREAKER_READMITTED),
            overload_pinned: registry.counter(names::SERVE_OVERLOAD_PINNED),
        }
    }
}

/// Locks a serve-side mutex, ignoring poison: everything behind these
/// mutexes is plain health/gate bookkeeping whose every update leaves
/// it valid, and handler panics are already contained by `catch_unwind`
/// upstream.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything the request handlers need, shared between the accept
/// thread and the connection threads.
struct ServerState {
    model: Arc<EmbLookupModel>,
    /// The full rung, as one shard or many; only [`scatter_shards`]
    /// searches it.
    index: ShardedIndex,
    /// Every shard's breaker and the overload pin. Never held while a
    /// span is annotated or a metric updated.
    health: Mutex<Health>,
    ladder: Ladder,
    /// Entity labels indexed by dense entity id, JSON-escaped once at
    /// startup: they are read only to render response bodies.
    labels: Vec<String>,
    faults: Option<FaultLayer>,
    config: ServeConfig,
    registry: Arc<MetricsRegistry>,
    metrics: ServeMetrics,
    /// Recent and tail-sampled traces; every completed request publishes
    /// here.
    traces: Traces,
    /// Request indices in arrival order; the fault layer's replay key.
    seq: RelaxedU64,
    /// Admission: `workers` running, `queue_cap` waiting, the rest shed.
    gate: Gate,
}

/// What one request carries from arrival to response.
struct RequestCtx<'a> {
    req: &'a Request,
    /// Arrival-order index: the fault-replay key (shard tasks and the
    /// breakers key off it too).
    idx: u64,
    faults: StageFaults,
    /// The `serve.request` root span; stage spans hang off it.
    root: TraceSpan,
    /// `stage.admit`, opened on arrival so that its duration is the
    /// wait for a running slot; the handler prologue closes it.
    admit: TraceSpan,
}

/// A running server. Dropping it stops the accept loop.
pub struct Server {
    addr: SocketAddr,
    /// One-way stop publication to the accept and connection loops.
    shutdown: Arc<Flag>,
    handle: Option<JoinHandle<()>>,
    registry: Arc<MetricsRegistry>,
}

impl Server {
    /// Binds `config.addr`, builds the degradation ladder, and starts
    /// the accept loop. Metrics go to a fresh registry of the server's
    /// own ([`Server::registry`]).
    ///
    /// Which index answers the full rung depends on `config.shards`:
    /// at `shards <= 1` it is `service`'s own `EntityIndex`, as built by
    /// the caller, served as a [`ShardedIndex`] of one. At `shards > 1`
    /// that index is dropped, not retained: startup re-embeds every
    /// label of `kg` with `service.model()` and builds the shards with
    /// `service.model().config().compression`, so an index the caller
    /// built with another compression (or over another graph) does not
    /// carry over.
    ///
    /// # Errors
    /// Propagates socket bind/configuration failures.
    pub fn start(service: EmbLookup, kg: &KnowledgeGraph, config: ServeConfig) -> io::Result<Server> {
        let registry = Arc::new(MetricsRegistry::new());
        Self::start_with_registry(service, kg, config, registry)
    }

    /// Like [`Server::start`] (same rule for which index serves: the
    /// service's own as the single shard at `shards <= 1`, a re-embedded
    /// partition at `shards > 1`) but exporting into a caller-supplied
    /// registry — tests use a private registry per server instance to
    /// assert exact counter values without cross-test interference.
    ///
    /// # Errors
    /// Propagates socket bind/configuration failures.
    pub fn start_with_registry(
        service: EmbLookup,
        kg: &KnowledgeGraph,
        config: ServeConfig,
        registry: Arc<MetricsRegistry>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let (model, own_index) = service.into_parts();
        let ladder = Ladder::build(&model, kg, FALLBACK_CAP);
        let labels: Vec<String> = (0..kg.num_entities())
            .map(|i| escape_json(kg.label(EntityId(i as u32))))
            .collect();
        let metrics = ServeMetrics::new(&registry);
        metrics.queue_depth.set(0.0);
        let faults = config.faults.clone().map(FaultLayer::new);
        let workers = if config.workers == 0 {
            emblookup_pool::default_threads()
        } else {
            config.workers
        };
        let gate = Gate::new(workers, config.queue_cap);
        let traces = Traces::new(config.slow_trace_ms, &registry);
        let index = if config.shards <= 1 {
            ShardedIndex::single(own_index)
        } else {
            drop(own_index);
            ShardedIndex::build(
                &model,
                kg,
                model.config().compression,
                config.shards,
                emblookup_core::num_threads(),
            )
        };
        metrics.shards_live.set(index.num_shards() as f64);
        let state = Arc::new(ServerState {
            model,
            health: Mutex::new(Health::new(index.num_shards())),
            index,
            ladder,
            labels,
            faults,
            config,
            registry: Arc::clone(&registry),
            metrics,
            traces,
            seq: RelaxedU64::new(0),
            gate,
        });
        let shutdown = Arc::new(Flag::new(0));
        let shutdown_flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("emblookup-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &state, &shutdown_flag))?;
        Ok(Server {
            addr,
            shutdown,
            handle: Some(handle),
            registry,
        })
    }

    /// The bound address (useful with `addr = "127.0.0.1:0"`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry this server exports from `/metrics`.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Stops accepting and joins the accept thread. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        self.shutdown.raise();
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>, shutdown: &Arc<Flag>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shutdown.is_raised() {
                return;
            }
            continue;
        };
        if shutdown.is_raised() {
            return;
        }
        state.metrics.connections.inc();
        let conn_state = Arc::clone(state);
        let conn_shutdown = Arc::clone(shutdown);
        // A failed spawn (fd/thread exhaustion) drops the connection —
        // the client sees a reset and retries; the server stays up.
        let _ = std::thread::Builder::new()
            .name("emblookup-serve-conn".to_string())
            .spawn(move || connection_loop(stream, &conn_state, &conn_shutdown));
    }
}

/// Serves one keep-alive connection: reads requests in order until the
/// client closes, asks for `Connection: close`, errors, or shutdown.
fn connection_loop(stream: TcpStream, state: &ServerState, shutdown: &Flag) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(READ_TIMEOUT_MS)));
    // Every response leaves in one `write`, so Nagle has nothing to
    // coalesce; left on, it holds the second response of a pipeline
    // until the client's delayed ACK of the first (~40 ms).
    let _ = stream.set_nodelay(true);
    // The connection's one read buffer: what it holds beyond a request's
    // body is the start of the next request (see `http`).
    let mut reader = BufReader::new(stream);
    loop {
        if shutdown.is_raised() {
            return;
        }
        let req = match read_request(&mut reader, MAX_BODY_BYTES) {
            Ok(req) => req,
            // An idle keep-alive peer hanging up (or timing out) between
            // requests is the protocol working, not an error.
            Err("connection closed before request head") => return,
            Err(why) => {
                state.metrics.errors.inc();
                let body = format!("{{\"error\":\"{}\"}}", escape_json(why));
                write_response(reader.get_mut(), &Response::json(400, body), false);
                return;
            }
        };
        state.metrics.requests.inc();
        // HTTP/1.1 defaults to persistent; only an explicit close opts out.
        let keep_alive = !req
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        let resp = match (req.method.as_str(), req.path.as_str()) {
            // Control plane: answered at once, never queued, never shed.
            ("GET", "/healthz") => Response::json(200, "{\"status\":\"ok\"}".to_string()),
            ("GET", "/metrics") => {
                state.metrics.queue_depth.set(state.gate.waiting() as f64);
                Response::text(200, state.registry.snapshot().to_prometheus())
            }
            ("GET", "/debug/traces") => Response::json(200, state.traces.listing_json()),
            ("GET", "/debug/traces/chrome") => Response::json(200, state.traces.chrome_json()),
            ("GET", path) if path.starts_with("/debug/traces/") => {
                let found = path
                    .strip_prefix("/debug/traces/")
                    .and_then(parse_trace_id)
                    .and_then(|id| state.traces.find_json(id));
                match found {
                    Some(body) => Response::json(200, body),
                    None => Response::json(404, "{\"error\":\"trace not found\"}".to_string()),
                }
            }
            ("POST", "/lookup") | ("POST", "/lookup/bulk") => admit(state, &req),
            ("GET", _) | ("POST", _) => {
                Response::json(404, "{\"error\":\"not found\"}".to_string())
            }
            _ => Response::json(405, "{\"error\":\"method not allowed\"}".to_string()),
        };
        write_response(reader.get_mut(), &resp, keep_alive);
        if !keep_alive {
            return;
        }
    }
}

/// Everything that happens on arrival: the request takes the next
/// index (and with it its scripted faults), its trace is minted (id from
/// the client header, else derived from the index), `stage.admit` opens
/// and the deadline clock starts — so time spent waiting for a slot is
/// both visible and charged. Under the virtual-time fault harness the two
/// clocks share one nanosecond counter, so injected latency shows up in
/// span durations.
fn arrive<'a>(state: &ServerState, req: &'a Request) -> (RequestCtx<'a>, DeadlineClock) {
    let idx = state.seq.add(1);
    let (faults, virtual_time) = match &state.faults {
        Some(layer) => (layer.for_request(idx), layer.virtual_time()),
        None => (StageFaults::default(), false),
    };
    let id = req
        .header("x-emblookup-trace-id")
        .and_then(parse_trace_id)
        .unwrap_or_else(|| trace_id_from_index(idx));
    let budget_ms = req
        .header("x-emblookup-deadline-ms")
        .and_then(|v| v.parse::<u64>().ok())
        .map(|ms| ms.clamp(1, MAX_DEADLINE_MS))
        .unwrap_or(state.config.default_deadline_ms);
    let (trace_clock, clock) = if virtual_time {
        let ns = Arc::new(RelaxedU64::new(0));
        (
            TraceClock::virtual_shared(Arc::clone(&ns)),
            DeadlineClock::with_virtual_ns(budget_ms, true, ns),
        )
    } else {
        (TraceClock::real(), DeadlineClock::new(budget_ms, false))
    };
    let root = Trace::start(id, trace_clock).root(names::SPAN_SERVE_REQUEST.as_str());
    root.annotate("request", idx);
    let admit = root.child(names::SPAN_STAGE_ADMIT);
    (RequestCtx { req, idx, faults, root, admit }, clock)
}

/// Deterministic bounded jitter for `Retry-After`: seeded off the
/// request index, so a herd of shed clients spreads its retries over
/// `[base/2, 3*base/2]` ms instead of stampeding back in lockstep —
/// and a replayed chaos run reproduces the same spread byte-for-byte.
fn retry_after_ms(idx: u64) -> u64 {
    let mut rng =
        StdRng::seed_from_u64(RETRY_JITTER_SEED ^ idx.wrapping_mul(0xA076_1D64_78BD_642F));
    RETRY_AFTER_MS / 2 + rng.gen_range(0..=RETRY_AFTER_MS)
}

/// Answers a shed request: publishes its minimal trace (root +
/// `stage.admit`) under the [`Trigger::Shed`] class, then `429` with a
/// jittered `Retry-After` (exact milliseconds in
/// `x-emblookup-retry-after-ms`; the standard header rounds up to
/// whole seconds).
fn shed_response(state: &ServerState, ctx: &RequestCtx, reason: &'static str) -> Response {
    state.metrics.shed.inc();
    ctx.admit.annotate("shed", 1u64);
    ctx.admit.annotate("reason", reason);
    ctx.admit.finish();
    ctx.root.annotate("status", 429u64);
    ctx.root.finish();
    let trace_id = ctx.root.trace().id();
    state.traces.publish(ctx.root.trace().snapshot(), &[Trigger::Shed]);
    let retry_ms = retry_after_ms(ctx.idx);
    Response::json(
        429,
        format!("{{\"error\":\"shed\",\"reason\":\"{}\"}}", escape_json(reason)),
    )
    .with_header("retry-after", &retry_ms.div_ceil(1000).max(1).to_string())
    .with_header("x-emblookup-retry-after-ms", &retry_ms.to_string())
    .with_header("x-emblookup-trace-id", &format_trace_id(trace_id))
}

/// The trigger classes a completed request's outcome hit; whether it
/// was also slow is for [`Traces::publish`] to decide.
fn triggers_for(data: &TraceData, panicked: bool, status: u16) -> Vec<Trigger> {
    let mut triggers = Vec::new();
    if let Some(AnnoValue::Str(rung)) = data.root_annotation("rung") {
        if rung != Rung::Full.name() {
            triggers.push(Trigger::Degraded);
        }
    }
    if matches!(status, 400 | 500 | 504) {
        triggers.push(Trigger::Error);
    }
    if panicked {
        triggers.push(Trigger::Panic);
    }
    triggers
}

/// Admission control, then the request itself, on the connection
/// thread: take a running slot at the gate (or shed with `429` when
/// `queue_cap` requests already wait, or on an injected shed fault), run
/// the handler under `catch_unwind`, publish the trace; the slot is
/// freed on return, before the caller writes the response.
fn admit(state: &ServerState, req: &Request) -> Response {
    let (ctx, clock) = arrive(state, req);
    ctx.admit.annotate("queued", state.gate.waiting() as u64);
    if ctx.faults.shed {
        return shed_response(state, &ctx, "fault injected");
    }
    let Some(_permit) = state.gate.enter() else {
        return shed_response(state, &ctx, "queue full");
    };
    state.metrics.admitted.inc();
    let start = Instant::now();
    let trace_id = ctx.root.trace().id();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        match ctx.req.path.as_str() {
            "/lookup" => handle_lookup(state, &ctx, &clock),
            _ => handle_bulk(state, &ctx, &clock),
        }
    }));
    let panicked = caught.is_err();
    let resp = caught.unwrap_or_else(|_| {
        state.metrics.panics.inc();
        state.metrics.errors.inc();
        Response::json(500, "{\"error\":\"internal panic (contained)\"}".to_string())
    });
    ctx.root.annotate("status", u64::from(resp.status));
    ctx.root.finish();
    let data = ctx.root.trace().snapshot();
    let triggers = triggers_for(&data, panicked, resp.status);
    // Published before the response is written: a client that saw the
    // answer can always fetch its trace.
    state.traces.publish(data, &triggers);
    state
        .metrics
        .latency
        .record_duration_with_exemplar(start.elapsed(), trace_id);
    resp.with_header("x-emblookup-trace-id", &format_trace_id(trace_id))
}

fn bad_request(state: &ServerState, why: &str) -> Response {
    state.metrics.errors.inc();
    Response::json(400, format!("{{\"error\":\"{}\"}}", escape_json(why)))
}

fn deadline_response(state: &ServerState, stage: Stage, clock: &DeadlineClock) -> Response {
    state.metrics.deadline_exceeded.inc();
    // Deterministic body: stage and budget only, no measured times.
    Response::json(
        504,
        format!(
            "{{\"error\":\"deadline\",\"stage\":\"{}\",\"budget_ms\":{}}}",
            stage.name(),
            clock.budget_ms()
        ),
    )
}

/// Appends candidates to `out` as a JSON array; scores are `-distance`
/// for the embedding rungs and Jaccard similarity for the q-gram rung.
/// The distance is what the answering index reports: exact squared L2
/// from the flat rung (and a flat full rung), an estimate of it from a
/// compressed full rung — ADC under PQ, the distance between projections
/// under PCA, the 8-bit re-rank store's under HnswPq (bound at
/// `HnswPqIndex::search`).
fn push_results(
    state: &ServerState,
    out: &mut String,
    results: impl Iterator<Item = (EntityId, f32)>,
) {
    out.push('[');
    for (i, (id, score)) in results.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let label = state
            .labels
            .get(id.0 as usize)
            .map(String::as_str)
            .unwrap_or("");
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{{\"id\":{},\"label\":\"{label}\",\"score\":{score}}}", id.0);
    }
    out.push(']');
}

/// What follows a `/lookup` search on any rung: the search stage's
/// deadline check, then the rank stage renders the `200`.
fn finish_lookup(
    state: &ServerState,
    ctx: &RequestCtx,
    clock: &DeadlineClock,
    rung: Rung,
    results: &[(EntityId, f32)],
    answered: Option<(usize, usize)>,
) -> Response {
    if clock.expired() {
        return tag_shards(deadline_response(state, Stage::Search, clock), answered);
    }
    let rank_span = ctx.root.child(names::SPAN_STAGE_RANK);
    match rung {
        Rung::Full => {}
        Rung::Flat => state.metrics.degraded_flat.inc(),
        Rung::Qgram => state.metrics.degraded_qgram.inc(),
    }
    ctx.root.annotate("rung", rung.name());
    let mut body = String::with_capacity(results.len() * 64 + 48);
    // Writing into a `String` cannot fail.
    let _ = write!(
        body,
        "{{\"rung\":\"{}\",\"degraded\":{},\"results\":",
        rung.name(),
        rung != Rung::Full
    );
    push_results(state, &mut body, results.iter().copied());
    body.push('}');
    rank_span.finish();
    tag_shards(Response::json(200, body), answered)
}

/// Scatter-gathers one closure across every breaker-admitted shard,
/// each attempt under a private slice of the request's remaining
/// deadline budget. Returns the delivered per-shard results (in shard
/// order; fewer than every shard is a partial answer, counted and
/// annotated on `parent`) and the total shard count.
///
/// `searches_per_shard` is how many index searches one attempt holds
/// (1 for `/lookup`, the batch size for `/lookup/bulk`); it sets how
/// many shards share a pool task ([`MIN_SEARCHES_PER_TASK`]). A fan-out
/// that fits one task never reaches the pool: its attempts run back to
/// back on this thread, each still under its own panic containment and
/// its own clock — started when the attempt starts, so the slices still
/// sum to the budget that remained.
///
/// `search`'s last argument is the attempt's share of the pool (its
/// width divided among the attempts, at least 1): how many threads a
/// closure that searches a batch may spread it over. One shard fans its
/// batch over the whole pool; as many shards as the pool is wide search
/// theirs sequentially, one task each.
///
/// Determinism: shard spans are pre-created sequentially
/// ([`TraceSpan::child_deferred`]) so span ids are width-independent;
/// shard tasks advance only their private clocks; gather and breaker
/// bookkeeping run in shard order. A serialized request stream
/// therefore produces byte-identical responses and traces at any pool
/// width.
fn scatter_shards<T: Send>(
    state: &ServerState,
    clock: &DeadlineClock,
    ctx: &RequestCtx,
    parent: &TraceSpan,
    searches_per_shard: usize,
    search: &(dyn Fn(&EntityIndex, &TraceSpan, usize) -> T + Sync),
) -> (Vec<T>, usize) {
    let total = state.index.num_shards();
    let (attempted, probes) = lock(&state.health).admit_shards(ctx.idx);
    if probes > 0 {
        state.metrics.breaker_probes.add(probes);
    }
    if attempted.is_empty() {
        parent.annotate("all_shards_failed", 1u64);
        return (Vec::new(), total);
    }
    let slice_ms = (clock.deterministic_remaining_ms() / attempted.len() as u64).max(1);
    let is_virtual = clock.is_virtual();
    let spans: Vec<TraceSpan> = attempted
        .iter()
        .map(|&shard_idx| {
            let span = parent.child_deferred(names::SPAN_STAGE_SHARD);
            span.annotate("shard", shard_idx as u64);
            span.annotate("budget_ms", slice_ms);
            span
        })
        .collect();
    let shards_per_task = MIN_SEARCHES_PER_TASK.div_ceil(searches_per_shard.max(1));
    let pool = Pool::global();
    let share = (pool.threads() / attempted.len()).max(1);
    #[expect(clippy::panic, reason = "a fault-injected panic is the shard_panic fault's entire purpose")]
    let outcomes = pool.scatter_grained(attempted.len(), shards_per_task, |i| {
        let shard_idx = attempted[i];
        let span = &spans[i];
        span.begin();
        // A private slice of the budget: a slow shard misses its own
        // deadline without dragging the shared clock (and the other
        // shards) down with it.
        let shard_clock = DeadlineClock::new(slice_ms, is_virtual);
        if let Some((target, ms)) = ctx.faults.shard_latency {
            if target as usize % total == shard_idx {
                span.annotate("fault_latency_ms", ms);
                shard_clock.advance_ms(ms);
            }
        }
        if let Some(target) = ctx.faults.shard_panic {
            if target as usize % total == shard_idx {
                span.annotate("fault_panic", 1u64);
                span.finish();
                panic!("injected fault: panic in shard {shard_idx} (request {})", ctx.idx);
            }
        }
        if shard_clock.expired() {
            span.annotate("deadline_miss", 1u64);
            span.finish();
            return None;
        }
        let out = search(state.index.shard(shard_idx), span, share);
        if shard_clock.expired() {
            span.annotate("deadline_miss", 1u64);
            span.finish();
            return None;
        }
        span.finish();
        Some(out)
    });
    if is_virtual {
        // The request's own clock pays for the slowest shard attempt,
        // capped at the slice: one stalled shard costs its slice, never
        // the whole budget.
        let injected = ctx
            .faults
            .shard_latency
            .filter(|(target, _)| attempted.contains(&(*target as usize % total)))
            .map(|(_, ms)| ms)
            .unwrap_or(0);
        clock.advance_ms(injected.min(slice_ms));
    }
    let (mut opened, mut readmitted) = (0, 0);
    let live = {
        let mut health = lock(&state.health);
        for (&shard, outcome) in attempted.iter().zip(&outcomes) {
            let ok = matches!(outcome, Ok(Some(_)));
            match health.record(ctx.idx, Outcome::Shard { shard, ok }) {
                Some(Change::Opened) => opened += 1,
                Some(Change::Readmitted) => readmitted += 1,
                _ => {}
            }
        }
        health.live_shards()
    };
    // Shared counters: a healthy request does not touch them.
    if opened + readmitted > 0 {
        state.metrics.breaker_opened.add(opened);
        state.metrics.breaker_readmitted.add(readmitted);
    }
    state.metrics.shards_live.set(live as f64);
    let mut delivered: Vec<T> = Vec::with_capacity(attempted.len());
    for outcome in outcomes {
        match outcome {
            Ok(Some(result)) => delivered.push(result),
            Ok(None) => {}
            Err(_panic) => state.metrics.panics.inc(),
        }
    }
    if delivered.is_empty() {
        parent.annotate("all_shards_failed", 1u64);
    } else if delivered.len() < total {
        state.metrics.partial.inc();
        parent.annotate("partial", 1u64);
    }
    (delivered, total)
}

/// Tags a response whose request consulted the shards with
/// `x-emblookup-shards: k/N` (`None`: a rung below the full one answered
/// without asking them).
fn tag_shards(resp: Response, answered: Option<(usize, usize)>) -> Response {
    match answered {
        Some((ok, total)) => resp.with_header("x-emblookup-shards", &format!("{ok}/{total}")),
        None => resp,
    }
}

/// How every faultable stage starts: note the budget left on its span,
/// then apply the stage's injected latency to the clock.
fn begin_stage(span: &TraceSpan, clock: &DeadlineClock, fault_latency_ms: u64) {
    span.annotate("deadline_remaining_ms", clock.deterministic_remaining_ms());
    if fault_latency_ms > 0 {
        span.annotate("fault_latency_ms", fault_latency_ms);
    }
    clock.advance_ms(fault_latency_ms);
}

/// The prologue both handlers share: closes the admit stage (whose span
/// has been open since arrival — the deadline check here is what charges
/// the queue wait), then decodes the body into JSON plus the clamped
/// `k`. `Err` is the finished `504`/`400` response.
fn open_request(
    state: &ServerState,
    ctx: &RequestCtx,
    clock: &DeadlineClock,
) -> Result<(Json, usize), Response> {
    // -- admit stage ----------------------------------------------------
    begin_stage(&ctx.admit, clock, ctx.faults.admit_latency_ms);
    ctx.admit.finish();
    if clock.expired() {
        return Err(deadline_response(state, Stage::Admit, clock));
    }

    // -- decode stage ---------------------------------------------------
    // Early returns leave the span open; the completion snapshot clamps
    // it, which reads as "the request died decoding" — honest.
    let decode_span = ctx.root.child(names::SPAN_STAGE_DECODE);
    let body = std::str::from_utf8(&ctx.req.body)
        .map_err(|_| bad_request(state, "body is not UTF-8"))?;
    let parsed = json::parse(body).map_err(|why| bad_request(state, why))?;
    let k = parsed
        .get("k")
        .and_then(Json::as_u64)
        .unwrap_or(10)
        .clamp(1, MAX_K) as usize;
    decode_span.finish();
    Ok((parsed, k))
}

/// Opens the search stage of either handler and applies its injected
/// faults: latency on the clock, then the containment drill — a
/// deliberately panicking backend, which the per-request `catch_unwind`
/// in [`admit`] turns into one `500`; the annotation survives into the
/// clamped-open span.
#[expect(clippy::panic, reason = "a fault-injected panic is the panic_in_search fault's entire purpose")]
fn search_stage_faults(ctx: &RequestCtx, clock: &DeadlineClock) -> TraceSpan {
    let search_span = ctx.root.child(names::SPAN_STAGE_SEARCH);
    begin_stage(&search_span, clock, ctx.faults.search_latency_ms);
    if ctx.faults.panic_in_search {
        search_span.annotate("fault_panic", 1u64);
        panic!("injected fault: panic in search stage (request {})", ctx.idx);
    }
    search_span
}

/// `POST /lookup` — the overload pin, then the degradation ladder.
/// Pinned answers skip the full pipeline, so they carry no signal about
/// whether the overload cleared; every other `200` (recovered) or `504`
/// (still drowning) is recorded in the service's health.
fn handle_lookup(state: &ServerState, ctx: &RequestCtx, clock: &DeadlineClock) -> Response {
    let resp = match open_request(state, ctx, clock) {
        Ok((parsed, k)) => {
            let Some(q) = parsed.get("q").and_then(Json::as_str) else {
                return bad_request(state, "missing string field 'q'");
            };
            // Sustained deadline misses pinned the whole service to the
            // string rung: answer cheap, fast, and honestly tagged.
            if lock(&state.health).pinned(ctx.idx) {
                state.metrics.overload_pinned.inc();
                ctx.root.annotate("overload", "pinned");
                return finish_qgram(state, q, k, clock, ctx)
                    .with_header("x-emblookup-overload", "pinned");
            }
            ladder_lookup(state, ctx, clock, q, k)
        }
        Err(resp) => resp,
    };
    if matches!(resp.status, 200 | 504) {
        lock(&state.health).record(ctx.idx, Outcome::Lookup { hit: resp.status == 200 });
    }
    resp
}

/// The degradation ladder under a `/lookup` the pin let through.
fn ladder_lookup(
    state: &ServerState,
    ctx: &RequestCtx,
    clock: &DeadlineClock,
    q: &str,
    k: usize,
) -> Response {
    let faults = ctx.faults;
    if clock.frac_remaining() <= QGRAM_FRAC {
        // Not even the encoder fits in what's left: string rung.
        return finish_qgram(state, q, k, clock, ctx);
    }

    // -- encode stage ---------------------------------------------------
    let encode_span = ctx.root.child(names::SPAN_STAGE_ENCODE);
    begin_stage(&encode_span, clock, faults.encode_latency_ms);
    let emb = state.model.embed(q);
    encode_span.finish();
    if clock.expired() {
        return deadline_response(state, Stage::Encode, clock);
    }
    let frac = clock.frac_remaining();
    if frac <= QGRAM_FRAC {
        return finish_qgram(state, q, k, clock, ctx);
    }

    // -- search stage ---------------------------------------------------
    let search_span = search_stage_faults(ctx, clock);
    let mut shard_header: Option<(usize, usize)> = None;
    // The full rung's answer; none (budget too short for it, a failing
    // backend, no shard delivered, a poisoned answer) steps down to the
    // flat rung.
    let mut full: Option<Vec<(EntityId, f32)>> = None;
    if frac > FLAT_FRAC {
        if faults.backend_error {
            search_span.annotate("fault_backend_error", 1u64);
        } else {
            let search = |shard: &EntityIndex, span: &TraceSpan, _share: usize| {
                shard.search_traced(&emb, k, span)
            };
            let (per_shard, total) = scatter_shards(state, clock, ctx, &search_span, 1, &search);
            shard_header = Some((per_shard.len(), total));
            if !per_shard.is_empty() {
                let mut hits = merge_topk(&per_shard, k);
                if faults.poison {
                    for (_, d) in hits.iter_mut() {
                        *d = f32::NAN;
                    }
                }
                if hits.iter().any(|(_, d)| d.is_nan()) {
                    // Poisoned primary answer: reject it.
                    search_span.annotate("fault_poison", 1u64);
                } else {
                    full = Some(hits.into_iter().map(|(id, d)| (id, -d)).collect());
                }
            }
        }
    }
    let (rung, results) = match full {
        Some(results) => (Rung::Full, results),
        None => (Rung::Flat, state.ladder.flat_search(&emb, k)),
    };
    search_span.annotate("rung", rung.name());
    search_span.finish();
    finish_lookup(state, ctx, clock, rung, &results, shard_header)
}

fn finish_qgram(
    state: &ServerState,
    q: &str,
    k: usize,
    clock: &DeadlineClock,
    ctx: &RequestCtx,
) -> Response {
    let search_span = ctx.root.child(names::SPAN_STAGE_SEARCH);
    search_span.annotate("rung", Rung::Qgram.name());
    search_span.annotate("deadline_remaining_ms", clock.deterministic_remaining_ms());
    let results = state.ladder.qgram_search(q, k);
    search_span.finish();
    finish_lookup(state, ctx, clock, Rung::Qgram, &results, None)
}

/// `POST /lookup/bulk` — full rung only; a batch that cannot run at
/// full fidelity inside its budget fails fast with `504` so the client
/// can split or retry it, rather than receiving a silently mixed-rung
/// batch.
fn handle_bulk(state: &ServerState, ctx: &RequestCtx, clock: &DeadlineClock) -> Response {
    let (parsed, k) = match open_request(state, ctx, clock) {
        Ok(opened) => opened,
        Err(resp) => return resp,
    };
    let Some(queries) = parsed.get("queries").and_then(Json::as_arr) else {
        return bad_request(state, "missing array field 'queries'");
    };
    if queries.len() > MAX_BULK {
        return bad_request(state, "too many queries in one batch");
    }
    let mut refs: Vec<&str> = Vec::with_capacity(queries.len());
    for q in queries {
        match q.as_str() {
            Some(s) => refs.push(s),
            None => return bad_request(state, "queries must be strings"),
        }
    }

    // -- search stage (bulk encodes inside it) ---------------------------
    let search_span = search_stage_faults(ctx, clock);
    if ctx.faults.backend_error {
        search_span.annotate("fault_backend_error", 1u64);
        state.metrics.errors.inc();
        return Response::json(500, "{\"error\":\"backend error\"}".to_string());
    }
    // One embedding pass for the whole batch, shared by every shard
    // attempt.
    let embs = state.model.embed_batch(&refs, emblookup_core::num_threads());
    let qs = VectorSet::from_flat(state.model.dim(), embs.concat());
    let search = |shard: &EntityIndex, span: &TraceSpan, share: usize| {
        span.annotate("queries", qs.len() as u64);
        shard.search_batch(&qs, k, share)
    };
    let (per_shard, total) = scatter_shards(state, clock, ctx, &search_span, qs.len(), &search);
    let shard_header = Some((per_shard.len(), total));
    if per_shard.is_empty() {
        state.metrics.errors.inc();
        let resp = Response::json(500, "{\"error\":\"all shards failed\"}".to_string());
        return tag_shards(resp, shard_header);
    }
    // each query's shard lists, borrowed into one reused list
    let mut lists: Vec<&[(EntityId, f32)]> = Vec::with_capacity(per_shard.len());
    let batches: Vec<Vec<(EntityId, f32)>> = (0..refs.len())
        .map(|qi| {
            lists.clear();
            lists.extend(per_shard.iter().map(|s| s[qi].as_slice()));
            merge_topk(&lists, k)
        })
        .collect();
    search_span.annotate("rung", Rung::Full.name());
    search_span.finish();
    if clock.expired() {
        return tag_shards(deadline_response(state, Stage::Search, clock), shard_header);
    }

    // -- rank stage -----------------------------------------------------
    let rank_span = ctx.root.child(names::SPAN_STAGE_RANK);
    ctx.root.annotate("rung", Rung::Full.name());
    let mut out = String::with_capacity(batches.iter().map(Vec::len).sum::<usize>() * 64 + 48);
    out.push_str("{\"rung\":\"full\",\"degraded\":false,\"results\":[");
    for (i, hits) in batches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_results(state, &mut out, hits.iter().map(|(id, d)| (*id, -d)));
    }
    out.push_str("]}");
    rank_span.finish();
    tag_shards(Response::json(200, out), shard_header)
}
