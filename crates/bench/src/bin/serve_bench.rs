//! Open-loop load generator for the sharded serving layer: goodput,
//! shed rate, and tail latency under three chaos scenarios.
//!
//! ```text
//! cargo run --release -p emblookup-bench --bin serve_bench            # full run
//! cargo run --release -p emblookup-bench --bin serve_bench -- --smoke # CI smoke
//! ```
//!
//! Unlike a closed loop (send, wait, send), arrivals are driven by a
//! fixed schedule: request `i` is due at `t0 + i/rate` regardless of
//! how the previous ones fared, spread over a small pool of keep-alive
//! connections. A server that slows down therefore sees the backlog a
//! real open-world client population would generate — which is exactly
//! what admission control, breakers, and the overload pin exist for.
//!
//! Scenarios (all against an in-process server, tiny shared model, so
//! the numbers isolate the serving path):
//!
//! * **healthy** — 3 shards, no faults: the scatter-gather baseline.
//! * **ejected** — a scripted chaos plan panics one shard until its
//!   breaker opens; the run then serves partial (`2/3`) results.
//! * **overload** — every full-pipeline request stalls past its budget
//!   in real time; sustained misses pin the service to the q-gram rung
//!   and goodput recovers from cheap pinned answers.
//!
//! Emits `BENCH_serve.json` in the repo root: per-scenario request
//! counts by outcome, server-side breaker/partial/pin counters, and
//! client-observed p50/p99 latency.

#![forbid(unsafe_code)]

use emblookup_core::{EmbLookup, EmbLookupConfig};
use emblookup_kg::{generate, EntityId, KnowledgeGraph, SynthKgConfig};
use emblookup_obs::{names, MetricsRegistry};
use emblookup_serve::{client, FaultConfig, ServeConfig, Server, StageFaults};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 3;

struct Load {
    requests: usize,
    rate_rps: f64,
    connections: usize,
}

#[derive(Default)]
struct Tally {
    ok: u64,
    shed: u64,
    deadline: u64,
    errors: u64,
    partial_tagged: u64,
    pinned_tagged: u64,
    latency_ns: Vec<u64>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.ok += other.ok;
        self.shed += other.shed;
        self.deadline += other.deadline;
        self.errors += other.errors;
        self.partial_tagged += other.partial_tagged;
        self.pinned_tagged += other.pinned_tagged;
        self.latency_ns.extend(other.latency_ns);
    }
}

/// One worker of the open-loop generator: sends its slice of the global
/// arrival schedule over a single keep-alive connection, reconnecting
/// once per failure (a shed or reset peer must not stop the clock).
fn drive(addr: SocketAddr, kg: &KnowledgeGraph, load: &Load, lane: usize, t0: Instant) -> Tally {
    let interarrival_ns = 1e9 / load.rate_rps;
    let mut tally = Tally::default();
    let mut conn = client::Connection::open(addr).ok();
    let n = kg.num_entities() as u32;
    let mut i = lane;
    while i < load.requests {
        let due = t0 + Duration::from_nanos((i as f64 * interarrival_ns) as u64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let body = format!("{{\"q\":\"{}\",\"k\":5}}", kg.label(EntityId(i as u32 % n)));
        let sent = Instant::now();
        let resp = match conn.as_mut().map(|c| c.post_json("/lookup", &body, &[])) {
            Some(Ok(resp)) => Some(resp),
            _ => {
                // One reconnect attempt; a dead lane still advances the
                // schedule so the arrival rate holds.
                conn = client::Connection::open(addr).ok();
                conn.as_mut().and_then(|c| c.post_json("/lookup", &body, &[]).ok())
            }
        };
        match resp {
            Some(resp) => {
                tally.latency_ns.push(sent.elapsed().as_nanos() as u64);
                match resp.status {
                    200 => tally.ok += 1,
                    429 => tally.shed += 1,
                    504 => tally.deadline += 1,
                    _ => tally.errors += 1,
                }
                if let Some(tag) = resp.header("x-emblookup-shards") {
                    if !tag.starts_with(&format!("{SHARDS}/")) {
                        tally.partial_tagged += 1;
                    }
                }
                if resp.header("x-emblookup-overload").is_some() {
                    tally.pinned_tagged += 1;
                }
            }
            None => tally.errors += 1,
        }
        i += load.connections;
    }
    tally
}

struct ScenarioResult {
    name: &'static str,
    requests: usize,
    duration_ms: u64,
    tally: Tally,
    goodput_rps: f64,
    p50_us: u64,
    p99_us: u64,
    server_partial: u64,
    server_breaker_opened: u64,
    server_overload_pinned: u64,
    server_shed: u64,
}

fn run_scenario(
    name: &'static str,
    service: &EmbLookup,
    kg: &KnowledgeGraph,
    config: ServeConfig,
    load: &Load,
) -> ScenarioResult {
    let registry = Arc::new(MetricsRegistry::new());
    let compression = service.model().config().compression;
    let own = EmbLookup::from_model(service.model_arc(), kg, compression);
    let server = Server::start_with_registry(own, kg, config, Arc::clone(&registry))
        .expect("bench server must start");
    let addr = server.addr();

    let t0 = Instant::now();
    let mut tally = Tally::default();
    std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..load.connections)
            .map(|lane| scope.spawn(move || drive(addr, kg, load, lane, t0)))
            .collect();
        for lane in lanes {
            tally.absorb(lane.join().expect("load lane must not panic"));
        }
    });
    let duration = t0.elapsed();

    tally.latency_ns.sort_unstable();
    let pct = |q: f64| -> u64 {
        if tally.latency_ns.is_empty() {
            return 0;
        }
        tally.latency_ns[((tally.latency_ns.len() - 1) as f64 * q) as usize] / 1_000
    };
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    ScenarioResult {
        name,
        requests: load.requests,
        duration_ms: duration.as_millis() as u64,
        goodput_rps: tally.ok as f64 / duration.as_secs_f64(),
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        server_partial: counter(names::SERVE_PARTIAL),
        server_breaker_opened: counter(names::SERVE_BREAKER_OPENED),
        server_overload_pinned: counter(names::SERVE_OVERLOAD_PINNED),
        server_shed: counter(names::SERVE_SHED),
        tally,
    }
}

/// Scripted chaos: panic shard 1 on the first `strikes` requests, then
/// stay healthy; the cooldown outlasts the run, so the shard stays
/// ejected. The strike window is deliberately wide — under concurrent
/// lanes, healthy requests race the panicking ones into the breaker's
/// bookkeeping, and only a sustained fault keeps the failure streak
/// consecutive long enough to open it (exactly like production).
fn ejected_plan(strikes: usize, len: usize) -> FaultConfig {
    let mut plan = vec![StageFaults::default(); len];
    for slot in plan.iter_mut().take(strikes) {
        slot.shard_panic = Some(1);
    }
    FaultConfig::Scripted {
        plan,
        virtual_time: false,
    }
}

/// Real-time overload: every scripted request stalls 4x its budget in
/// the encode stage. Only full-pipeline attempts pay it — pinned
/// requests answer from the q-gram rung before encode.
fn overload_plan(stall_ms: u64) -> FaultConfig {
    FaultConfig::Scripted {
        plan: vec![StageFaults {
            encode_latency_ms: stall_ms,
            ..StageFaults::default()
        }],
        virtual_time: false,
    }
}

fn main() {
    // The chaos plans panic inside shard tasks on purpose (the pool
    // contains them); keep the injected ones out of the bench output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));

    let smoke = std::env::args().any(|a| a == "--smoke");
    let load = if smoke {
        Load { requests: 120, rate_rps: 300.0, connections: 4 }
    } else {
        Load { requests: 800, rate_rps: 400.0, connections: 8 }
    };
    let overload_load = if smoke {
        Load { requests: 120, rate_rps: 120.0, connections: 4 }
    } else {
        Load { requests: 360, rate_rps: 150.0, connections: 8 }
    };

    eprintln!("training tiny shared model…");
    let synth = generate(SynthKgConfig::tiny(77));
    let service = EmbLookup::train_on(&synth.kg, EmbLookupConfig::tiny(77));
    let kg = &synth.kg;

    let base = ServeConfig {
        workers: 2,
        queue_cap: 32,
        shards: SHARDS,
        ..ServeConfig::default()
    };

    let healthy = run_scenario("healthy", &service, kg, base.clone(), &load);
    let ejected = run_scenario(
        "ejected",
        &service,
        kg,
        ServeConfig {
            breaker_threshold: 3,
            breaker_cooldown: 1_000_000,
            faults: Some(ejected_plan(load.requests / 3, load.requests)),
            ..base.clone()
        },
        &load,
    );
    let overload = run_scenario(
        "overload",
        &service,
        kg,
        ServeConfig {
            queue_cap: 8,
            default_deadline_ms: 50,
            overload_threshold: 3,
            overload_probe_interval: 8,
            faults: Some(overload_plan(200)),
            ..base
        },
        &overload_load,
    );

    let results = [healthy, ejected, overload];
    println!(
        "{:<10} {:>6} {:>7} {:>6} {:>6} {:>6} {:>8} {:>9} {:>9} {:>8} {:>8}",
        "scenario", "sent", "ok", "shed", "504", "err", "partial", "goodput", "p50", "p99", "pinned"
    );
    for r in &results {
        println!(
            "{:<10} {:>6} {:>7} {:>6} {:>6} {:>6} {:>8} {:>7.0}/s {:>7}us {:>6}us {:>8}",
            r.name,
            r.requests,
            r.tally.ok,
            r.tally.shed,
            r.tally.deadline,
            r.tally.errors,
            r.server_partial,
            r.goodput_rps,
            r.p50_us,
            r.p99_us,
            r.server_overload_pinned,
        );
    }

    let mut json = String::from("{\n  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            concat!(
                "    {{\"name\": \"{}\", \"shards\": {}, \"requests\": {}, ",
                "\"duration_ms\": {}, \"ok\": {}, \"shed\": {}, \"deadline\": {}, ",
                "\"errors\": {}, \"partial_tagged\": {}, \"pinned_tagged\": {}, ",
                "\"server_partial\": {}, \"server_breaker_opened\": {}, ",
                "\"server_overload_pinned\": {}, \"server_shed\": {}, ",
                "\"goodput_rps\": {:.1}, \"p50_us\": {}, \"p99_us\": {}}}"
            ),
            r.name,
            SHARDS,
            r.requests,
            r.duration_ms,
            r.tally.ok,
            r.tally.shed,
            r.tally.deadline,
            r.tally.errors,
            r.tally.partial_tagged,
            r.tally.pinned_tagged,
            r.server_partial,
            r.server_breaker_opened,
            r.server_overload_pinned,
            r.server_shed,
            r.goodput_rps,
            r.p50_us,
            r.p99_us,
        );
    }
    json.push_str("\n  ]\n}\n");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    eprintln!("wrote BENCH_serve.json");
}
