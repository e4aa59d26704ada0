//! End-to-end tests of sharded keep-alive serving: scatter-gather over
//! the shards (one holding everything, or a hash partition), per-shard
//! circuit breakers, partial-result tagging, the whole-service overload
//! pin, and shed-retry jitter.
//!
//! `scripts/ci.sh` runs this suite at `EMBLOOKUP_THREADS` 1, default, 2
//! and 4 — the global pool the scatter fans out on — so everything
//! asserted here must be width-independent.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, reason = "integration-test helpers panic to report a failure")]

use emblookup_core::{Compression, EmbLookup, EmbLookupConfig, EmbLookupModel};
use emblookup_kg::{generate, EntityId, KnowledgeGraph, SynthKgConfig};
use emblookup_obs::names::{self, Name};
use emblookup_obs::MetricsRegistry;
use emblookup_serve::{client, FaultConfig, ServeConfig, Server, StageFaults};
use std::sync::{Arc, OnceLock};

fn shared_model() -> &'static (Arc<EmbLookupModel>, KnowledgeGraph) {
    static SHARED: OnceLock<(Arc<EmbLookupModel>, KnowledgeGraph)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let synth = generate(SynthKgConfig::tiny(77));
        let service = EmbLookup::train_on(&synth.kg, EmbLookupConfig::tiny(77));
        (service.model_arc(), synth.kg)
    })
}

fn start(config: ServeConfig) -> (Server, Arc<MetricsRegistry>) {
    let (model, kg) = shared_model();
    let compression = model.config().compression;
    let service = EmbLookup::from_model(Arc::clone(model), kg, compression);
    let registry = Arc::new(MetricsRegistry::new());
    let server = Server::start_with_registry(service, kg, config, Arc::clone(&registry))
        .expect("server must start");
    (server, registry)
}

fn counter(registry: &MetricsRegistry, name: Name) -> u64 {
    registry.snapshot().counter(name.as_str()).unwrap_or(0)
}

fn lookup_body(entity: u32) -> String {
    let (_, kg) = shared_model();
    format!("{{\"q\":\"{}\",\"k\":3}}", kg.label(EntityId(entity)))
}

/// A scripted plan injecting a panic into shard `target % shards` for
/// the first `n` requests, then nothing for the rest of `len`.
fn shard_panic_plan(target: u32, n: usize, len: usize) -> FaultConfig {
    let mut plan = vec![StageFaults::default(); len];
    for slot in plan.iter_mut().take(n) {
        slot.shard_panic = Some(target);
    }
    FaultConfig::Scripted {
        plan,
        virtual_time: true,
    }
}

#[test]
fn sharded_lookup_answers_full_rung_with_full_coverage_tag() {
    let (server, registry) = start(ServeConfig {
        workers: 2,
        shards: 4,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let (_, kg) = shared_model();

    let resp = client::post_json(addr, "/lookup", &lookup_body(0), &[]).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert!(resp.body.contains("\"rung\":\"full\""), "body: {}", resp.body);
    assert_eq!(resp.header("x-emblookup-shards"), Some("4/4"));
    let label = kg.label(EntityId(0));
    assert!(
        resp.body.contains(&format!("\"label\":\"{label}\"")),
        "queried label must be found: {}",
        resp.body
    );

    // Bulk goes through the same scatter and carries the same tag.
    let bulk = format!(
        "{{\"queries\":[\"{}\",\"{}\"],\"k\":2}}",
        kg.label(EntityId(1)),
        kg.label(EntityId(2)),
    );
    let resp = client::post_json(addr, "/lookup/bulk", &bulk, &[]).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(resp.header("x-emblookup-shards"), Some("4/4"));

    assert_eq!(counter(&registry, names::SERVE_PARTIAL), 0);
    assert_eq!(registry.snapshot().gauge(names::SERVE_SHARDS_LIVE.as_str()), Some(4.0));
}

#[test]
fn keep_alive_connection_serves_many_requests() {
    let (server, registry) = start(ServeConfig {
        workers: 2,
        shards: 2,
        ..ServeConfig::default()
    });

    let mut conn = client::Connection::open(server.addr()).unwrap();
    for i in 0..3u32 {
        let resp = conn.post_json("/lookup", &lookup_body(i), &[]).unwrap();
        assert_eq!(resp.status, 200, "request {i}: {}", resp.body);
        assert_eq!(resp.header("x-emblookup-shards"), Some("2/2"));
    }
    // Control plane rides the same persistent connection.
    let health = conn.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let resp = conn.post_json("/lookup", &lookup_body(3), &[]).unwrap();
    assert_eq!(resp.status, 200);
    drop(conn);

    assert_eq!(counter(&registry, names::SERVE_CONNECTIONS), 1);
    assert_eq!(counter(&registry, names::SERVE_ADMITTED), 4);
}

#[test]
fn sharded_server_publishes_the_size_of_the_index_it_searches() {
    // At `shards = 2` the server drops the index it is handed — PQ here —
    // and builds its shards with the model's own compression, flat. The
    // gauges are process-global, but every other server of this binary
    // indexes the same graph flat, so whatever writes them meanwhile
    // writes these same totals.
    let (model, kg) = shared_model();
    let front = EmbLookup::from_model(Arc::clone(model), kg, Compression::Pq { m: 4, ks: 16 });
    let flat_bytes = kg.num_entities() * model.dim() * std::mem::size_of::<f32>();
    assert!(front.index().nbytes() < flat_bytes / 2);
    let _server = Server::start(front, kg, ServeConfig { workers: 1, shards: 2, ..ServeConfig::default() })
        .expect("server must start");
    let snap = emblookup_obs::global().snapshot();
    assert_eq!(snap.gauge(names::INDEX_NBYTES.as_str()), Some(flat_bytes as f64));
    assert_eq!(snap.gauge(names::INDEX_ENTITIES.as_str()), Some(kg.num_entities() as f64));
}

/// The breaker walk: panics eject one shard (responses degrade to
/// partial, never fail), the end of the cooldown lets one request probe
/// it, and a healthy probe readmits the shard.
#[test]
fn breaker_ejects_shard_then_readmits_after_probe() {
    let (server, registry) = start(ServeConfig {
        workers: 1,
        shards: 2,
        faults: Some(shard_panic_plan(0, 3, 12)),
        ..ServeConfig::default()
    });
    let mut conn = client::Connection::open(server.addr()).unwrap();

    // Requests 0–2: shard 0 panics; every answer is a partial 200 and
    // the third failure opens the breaker.
    for i in 0..3u32 {
        let resp = conn.post_json("/lookup", &lookup_body(i % 4), &[]).unwrap();
        assert_eq!(resp.status, 200, "request {i}: {}", resp.body);
        assert_eq!(resp.header("x-emblookup-shards"), Some("1/2"), "request {i}");
        assert!(resp.body.contains("\"rung\":\"full\""));
    }
    assert_eq!(counter(&registry, names::SERVE_BREAKER_OPENED), 1);
    assert_eq!(registry.snapshot().gauge(names::SERVE_SHARDS_LIVE.as_str()), Some(1.0));

    // Requests 3–9: breaker open, shard skipped without being attempted.
    for i in 3..10u32 {
        let resp = conn.post_json("/lookup", &lookup_body(i % 4), &[]).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-emblookup-shards"), Some("1/2"), "request {i}");
    }
    assert_eq!(counter(&registry, names::SERVE_BREAKER_PROBES), 0);

    // Request 10: cooldown elapsed (opened at 2, cooldown 8) — the
    // probe runs against a now-healthy shard and readmits it.
    let resp = conn.post_json("/lookup", &lookup_body(0), &[]).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-emblookup-shards"), Some("2/2"));
    assert_eq!(counter(&registry, names::SERVE_BREAKER_PROBES), 1);
    assert_eq!(counter(&registry, names::SERVE_BREAKER_READMITTED), 1);
    assert_eq!(registry.snapshot().gauge(names::SERVE_SHARDS_LIVE.as_str()), Some(2.0));

    // Request 11: steady state again.
    let resp = conn.post_json("/lookup", &lookup_body(1), &[]).unwrap();
    assert_eq!(resp.header("x-emblookup-shards"), Some("2/2"));

    assert_eq!(counter(&registry, names::SERVE_PARTIAL), 10);
    assert_eq!(counter(&registry, names::SERVE_PANICS), 3);
    assert_eq!(counter(&registry, names::SERVE_ERRORS), 0, "no request failed");
}

/// With every shard ejected the full rung has nothing to scatter to:
/// the ladder steps down to the flat fallback instead of failing.
#[test]
fn all_shards_ejected_falls_back_to_flat() {
    // Requests 0–2 eject shard 0 (at 2), requests 3–5 shard 1 (at 5);
    // neither cooldown ends before request 10.
    let mut plan = vec![StageFaults::default(); 8];
    for (i, slot) in plan.iter_mut().take(6).enumerate() {
        slot.shard_panic = Some(u32::from(i >= 3));
    }
    let (server, registry) = start(ServeConfig {
        workers: 1,
        shards: 2,
        faults: Some(FaultConfig::Scripted {
            plan,
            virtual_time: true,
        }),
        ..ServeConfig::default()
    });
    let mut conn = client::Connection::open(server.addr()).unwrap();

    for i in 0..6u32 {
        let resp = conn.post_json("/lookup", &lookup_body(i % 4), &[]).unwrap();
        assert_eq!(resp.status, 200, "request {i}: {}", resp.body);
    }
    assert_eq!(counter(&registry, names::SERVE_BREAKER_OPENED), 2);

    let resp = conn.post_json("/lookup", &lookup_body(2), &[]).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(resp.header("x-emblookup-shards"), Some("0/2"));
    assert!(resp.body.contains("\"rung\":\"flat\""), "body: {}", resp.body);
    assert!(resp.body.contains("\"degraded\":true"));
    assert_eq!(registry.snapshot().gauge(names::SERVE_SHARDS_LIVE.as_str()), Some(0.0));

    // Bulk has no ladder: all shards gone is an honest 500, tagged.
    let bulk = "{\"queries\":[\"x\"],\"k\":1}";
    let resp = conn.post_json("/lookup/bulk", bulk, &[]).unwrap();
    assert_eq!(resp.status, 500);
    assert_eq!(resp.header("x-emblookup-shards"), Some("0/2"));
}

/// Sustained deadline misses pin the service to the string rung; the
/// periodic probe unpins once the full pipeline beats its budget again.
#[test]
fn overload_pins_to_string_rung_and_probe_unpins() {
    // Budget 100 virtual ms; encode latency 130 guarantees a miss.
    let stall = StageFaults {
        encode_latency_ms: 130,
        ..StageFaults::default()
    };
    let mut plan = vec![stall; 7];
    plan.extend(vec![StageFaults::default(); 5]);
    let (server, registry) = start(ServeConfig {
        workers: 1,
        default_deadline_ms: 100,
        faults: Some(FaultConfig::Scripted {
            plan,
            virtual_time: true,
        }),
        ..ServeConfig::default()
    });
    let mut conn = client::Connection::open(server.addr()).unwrap();
    let mut outcomes = Vec::new();
    for i in 0..11u32 {
        let resp = conn.post_json("/lookup", &lookup_body(i % 4), &[]).unwrap();
        outcomes.push((
            resp.status,
            resp.header("x-emblookup-overload").map(str::to_string),
        ));
    }
    let pinned = Some("pinned".to_string());
    assert_eq!(
        outcomes,
        vec![
            (504, None),          // miss 1
            (504, None),          // miss 2
            (504, None),          // miss 3: pin engages (since 2)
            (200, pinned.clone()), // pinned: q-gram answer
            (200, pinned.clone()), // pinned
            (200, pinned.clone()), // pinned
            (504, None),          // probe ((6-2)%4==0) still stalled
            (200, pinned.clone()), // pinned
            (200, pinned.clone()), // pinned
            (200, pinned), // pinned
            (200, None),   // probe ((10-2)%4==0) beats its budget: unpinned
        ],
        "pin walk diverged"
    );
    assert_eq!(counter(&registry, names::SERVE_OVERLOAD_PINNED), 6);
}

/// Shed responses spread their retry hints: deterministic per request
/// index, bounded to [base/2, 3*base/2], and not all identical — a
/// herd of shed clients must not stampede back in lockstep.
#[test]
fn shed_retry_jitter_is_bounded_spread_and_deterministic() {
    let collect = || {
        let (server, _registry) = start(ServeConfig {
            workers: 1,
            queue_cap: 0,
            shards: 2,
            ..ServeConfig::default()
        });
        let mut conn = client::Connection::open(server.addr()).unwrap();
        let mut retries = Vec::new();
        for i in 0..8u32 {
            let resp = conn.post_json("/lookup", &lookup_body(i % 4), &[]).unwrap();
            assert_eq!(resp.status, 429);
            let ms: u64 = resp
                .header("x-emblookup-retry-after-ms")
                .expect("shed responses carry the exact retry hint")
                .parse()
                .unwrap();
            retries.push(ms);
        }
        retries
    };
    let first = collect();
    for &ms in &first {
        assert!((500..=1500).contains(&ms), "retry {ms}ms out of bounds");
    }
    let distinct: std::collections::BTreeSet<u64> = first.iter().copied().collect();
    assert!(
        distinct.len() >= 4,
        "jitter must spread the herd, got {first:?}"
    );
    assert_eq!(first, collect(), "same indices, same jitter, always");
}

/// The §8 determinism contract extended to shards: a serialized request
/// stream — including shard faults, breaker transitions, and partial
/// results — produces byte-identical responses at any worker count.
/// (`scripts/ci.sh` re-runs this whole suite at `EMBLOOKUP_THREADS=1`
/// and default, varying the scatter pool's width too.)
#[test]
fn sharded_chaos_responses_are_byte_identical_across_worker_counts() {
    let mut plan = vec![StageFaults::default(); 12];
    plan[0].shard_panic = Some(1);
    plan[1].shard_latency = Some((1, 400)); // stall > slice: deadline miss
    plan[2].shard_panic = Some(1); // third strike: breaker opens
    plan[5].shard_latency = Some((0, 5)); // small stall, absorbed
    // request 10 probes shard 1 back in
    let config = |workers| ServeConfig {
        workers,
        shards: 3,
        default_deadline_ms: 200,
        faults: Some(FaultConfig::Scripted {
            plan: plan.clone(),
            virtual_time: true,
        }),
        ..ServeConfig::default()
    };
    let (narrow, _) = start(config(1));
    let (wide, _) = start(config(4));
    let mut narrow_conn = client::Connection::open(narrow.addr()).unwrap();
    let mut wide_conn = client::Connection::open(wide.addr()).unwrap();

    for i in 0..12u32 {
        let body = lookup_body(i % 4);
        let a = narrow_conn.post_json("/lookup", &body, &[]).unwrap();
        let b = wide_conn.post_json("/lookup", &body, &[]).unwrap();
        assert_eq!(a.status, b.status, "request {i} status diverged");
        assert_eq!(a.body, b.body, "request {i} body diverged");
        assert_eq!(
            a.header("x-emblookup-shards"),
            b.header("x-emblookup-shards"),
            "request {i} shard tag diverged"
        );
    }
}

/// The fan-out's grain, seen from outside: a `/lookup` holds one search
/// per shard — under the grain at two shards — so both attempts run on
/// the request's own thread, shard 0 then shard 1, at any pool width
/// (`scripts/ci.sh` runs this suite at `EMBLOOKUP_THREADS` 1, 2 and 4).
#[test]
fn lookup_shard_attempts_run_in_order_on_the_request_thread() {
    use emblookup_serve::json::{self, Json};
    let (server, _registry) = start(ServeConfig {
        workers: 2,
        shards: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let resp =
        client::post_json(addr, "/lookup", &lookup_body(0), &[("x-emblookup-trace-id", "5ca7")])
            .unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(resp.header("x-emblookup-shards"), Some("2/2"));

    let fetched = client::get(addr, "/debug/traces/5ca7").unwrap();
    assert_eq!(fetched.status, 200, "body: {}", fetched.body);
    let doc = json::parse(&fetched.body).expect("trace must parse");
    let spans = doc
        .get("trace")
        .and_then(|t| t.get("spans"))
        .and_then(Json::as_arr)
        .expect("trace carries spans");
    let field =
        |span: &Json, key: &str| span.get(key).and_then(Json::as_u64).expect("numeric span field");
    let named = |name: &str| {
        spans
            .iter()
            .filter(|s| s.get("name").and_then(Json::as_str) == Some(name))
            .collect::<Vec<_>>()
    };
    let root = named("serve.request");
    let shards = named("stage.shard");
    assert_eq!((root.len(), shards.len()), (1, 2), "trace: {}", fetched.body);
    for (at, span) in shards.iter().enumerate() {
        let shard = span.get("annotations").and_then(|a| a.get("shard")).and_then(Json::as_u64);
        assert_eq!(shard, Some(at as u64), "shard spans out of shard order");
        assert_eq!(
            field(span, "thread"),
            field(root[0], "thread"),
            "a below-grain shard attempt left the request's thread: {}",
            fetched.body
        );
    }
    assert!(
        field(shards[1], "start_ns") >= field(shards[0], "start_ns") + field(shards[0], "dur_ns"),
        "attempts must run back to back: {}",
        fetched.body
    );
}

/// Every response of a walk as `(status, shard tag, body)`, and the
/// server's counters after it.
type WalkLog = (Vec<(u16, Option<String>, String)>, Arc<MetricsRegistry>);

/// One shard is a shard like any other: it has a breaker, shard faults
/// reach it (target 7 of 1 shard is shard 0), and the server keeps
/// answering while it is ejected. Fourteen requests on one connection.
fn one_shard_walk(workers: usize, path: &str, body: impl Fn(u32) -> String) -> WalkLog {
    let (server, registry) = start(ServeConfig {
        workers,
        shards: 1,
        faults: Some(shard_panic_plan(7, 3, 14)),
        ..ServeConfig::default()
    });
    let mut conn = client::Connection::open(server.addr()).unwrap();
    let responses = (0..14u32)
        .map(|i| {
            let resp = conn.post_json(path, &body(i), &[]).unwrap();
            let tag = resp.header("x-emblookup-shards").map(str::to_string);
            (resp.status, tag, resp.body)
        })
        .collect();
    // The server outlived the panics and the ejection.
    assert_eq!(conn.get("/healthz").unwrap().status, 200);
    (responses, registry)
}

/// Requests 0–2 panic in the shard (the third opens its breaker, at
/// request 2), 3–9 find it open, 10 is the probe (opened at 2,
/// cooldown 8) that readmits it. Every answer is a `200`, so the
/// overload pin never engages.
#[test]
fn one_shard_breaker_walk_answers_from_the_flat_rung_while_ejected() {
    let (walk, registry) = one_shard_walk(1, "/lookup", |i| lookup_body(i % 4));
    for (i, (status, tag, body)) in walk.iter().enumerate() {
        assert_eq!(*status, 200, "request {i}: {body}");
        let (rung, answered) = if i < 10 { ("flat", "0/1") } else { ("full", "1/1") };
        assert!(body.contains(&format!("\"rung\":\"{rung}\"")), "request {i}: {body}");
        assert_eq!(tag.as_deref(), Some(answered), "request {i}");
    }
    for (name, want) in [
        (names::SERVE_BREAKER_OPENED, 1),
        (names::SERVE_BREAKER_PROBES, 1),
        (names::SERVE_BREAKER_READMITTED, 1),
        (names::SERVE_PANICS, 3),
        (names::SERVE_DEGRADED_FLAT, 10),
        (names::SERVE_PARTIAL, 0),
        (names::SERVE_ERRORS, 0),
    ] {
        assert_eq!(counter(&registry, name), want, "{name:?}");
    }
    assert_eq!(registry.snapshot().gauge(names::SERVE_SHARDS_LIVE.as_str()), Some(1.0));

    let (wide, _) = one_shard_walk(4, "/lookup", |i| lookup_body(i % 4));
    assert_eq!(walk, wide, "the walk must not depend on the worker count");
}

/// Bulk has no ladder under it: the same walk is ten honest `500`s,
/// tagged, and full answers once the shard is back.
#[test]
fn one_shard_bulk_fails_tagged_while_ejected_and_keeps_serving() {
    let (_, kg) = shared_model();
    let bulk = |i: u32| {
        format!("{{\"queries\":[\"{}\",\"x\"],\"k\":2}}", kg.label(EntityId(i % 4)))
    };
    let (walk, registry) = one_shard_walk(1, "/lookup/bulk", bulk);
    for (i, (status, tag, body)) in walk.iter().enumerate() {
        if i < 10 {
            assert_eq!((*status, body.as_str()), (500, "{\"error\":\"all shards failed\"}"));
            assert_eq!(tag.as_deref(), Some("0/1"), "request {i}");
        } else {
            assert_eq!(*status, 200, "request {i}: {body}");
            assert_eq!(tag.as_deref(), Some("1/1"), "request {i}");
        }
    }
    assert_eq!(counter(&registry, names::SERVE_PANICS), 3);
    assert_eq!(counter(&registry, names::SERVE_ERRORS), 10);
    assert_eq!(counter(&registry, names::SERVE_BREAKER_READMITTED), 1);

    let (wide, _) = one_shard_walk(4, "/lookup/bulk", bulk);
    assert_eq!(walk, wide, "the walk must not depend on the worker count");
}

/// The ends of the shard-count range: a batch of nothing is an answer
/// of nothing, and a partition far finer than the graph (most of its
/// 500 shards hold no entity at all) answers what one shard answers.
#[test]
fn empty_batches_and_mostly_empty_shards_answer_normally() {
    let (one, _) = start(ServeConfig { workers: 2, ..ServeConfig::default() });
    let (many, _) = start(ServeConfig { workers: 2, shards: 500, ..ServeConfig::default() });

    for (server, tag) in [(&one, "1/1"), (&many, "500/500")] {
        let resp =
            client::post_json(server.addr(), "/lookup/bulk", "{\"queries\":[],\"k\":3}", &[])
                .unwrap();
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        assert_eq!(resp.body, "{\"rung\":\"full\",\"degraded\":false,\"results\":[]}");
        assert_eq!(resp.header("x-emblookup-shards"), Some(tag));
    }

    for entity in 0..8u32 {
        let body = lookup_body(entity);
        let a = client::post_json(one.addr(), "/lookup", &body, &[]).unwrap();
        let b = client::post_json(many.addr(), "/lookup", &body, &[]).unwrap();
        assert_eq!((a.status, b.status), (200, 200), "{} / {}", a.body, b.body);
        assert_eq!(a.header("x-emblookup-shards"), Some("1/1"));
        assert_eq!(b.header("x-emblookup-shards"), Some("500/500"));
        assert_eq!(a.body, b.body, "entity {entity}: top-3 diverged");
    }
}

/// `ShardedIndex::build` builds its shards side by side on the pool; each
/// must be the index `EntityIndex::from_vectors` builds from that shard's
/// rows alone, on one thread — same bytes, same answers — at every width
/// ci.sh runs this suite at.
#[test]
fn sharded_build_is_the_serial_per_shard_build() {
    use emblookup_ann::VectorSet;
    use emblookup_core::{shard_of, Compression, EntityIndex, ShardedIndex};
    use emblookup_kg::KgFlavor;

    let (model, _) = shared_model();
    // ≈ 3.8k rows: one shard is above k-means' pool threshold (its
    // fork-joins nest inside the shard fan-out), three are built abreast
    let kg = generate(SynthKgConfig::benchmark(5, KgFlavor::Wikidata)).kg;
    let mut labels: Vec<&str> = kg.entities().map(|e| e.label.as_str()).collect();
    let mut ids: Vec<EntityId> = kg.entities().map(|e| e.id).collect();
    if model.config().index_aliases {
        for e in kg.entities() {
            for alias in &e.aliases {
                labels.push(alias.as_str());
                ids.push(e.id);
            }
        }
    }
    let rows = model.embed_batch(&labels, 1);
    let queries = [0usize, 17, 333, 2024].map(|row| rows[row].clone());

    let compressions = [
        Compression::HnswPq { m: 8, ef_search: 32, pq_m: 4, pq_ks: 32 },
        Compression::Pq { m: 4, ks: 32 },
    ];
    for compression in compressions {
        for num_shards in [1usize, 3] {
            let sharded = ShardedIndex::build(model, &kg, compression, num_shards, 2);
            assert_eq!(sharded.len(), rows.len());
            for shard in 0..num_shards {
                let mut shard_ids = Vec::new();
                let mut shard_vecs = VectorSet::new(model.dim());
                for (row, id) in ids.iter().enumerate() {
                    if shard_of(*id, num_shards) == shard {
                        shard_ids.push(*id);
                        shard_vecs.push(&rows[row]);
                    }
                }
                let serial = EntityIndex::from_vectors(shard_ids, shard_vecs, compression);
                let built = sharded.shard(shard);
                let case = format!("{compression:?} shard {shard}/{num_shards}");
                assert_eq!(built.len(), serial.len(), "{case}");
                assert_eq!(built.nbytes(), serial.nbytes(), "{case}");
                assert_eq!(built.backend_name(), serial.backend_name(), "{case}");
                for q in &queries {
                    let bits = |hits: Vec<(EntityId, f32)>| -> Vec<(EntityId, u32)> {
                        hits.into_iter().map(|(id, d)| (id, d.to_bits())).collect()
                    };
                    assert_eq!(bits(built.search(q, 10)), bits(serial.search(q, 10)), "{case}");
                }
            }
        }
    }
}
