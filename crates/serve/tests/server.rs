//! End-to-end tests of the hardened serving layer, driven over real
//! TCP sockets with the crate's own client.
//!
//! One tiny EmbLookup model is trained once and shared; each server
//! instance gets its own `EmbLookup` rebuilt from the shared model (an
//! exact, deterministic operation) plus a private metrics registry so
//! counter assertions cannot interfere across tests.
//!
//! `scripts/ci.sh` runs this suite under both `EMBLOOKUP_THREADS=1`
//! and the default thread count: everything asserted here — statuses,
//! rung order, counter values, response bytes — must hold at any pool
//! width.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, reason = "integration-test helpers panic to report a failure")]

use emblookup_core::{EmbLookup, EmbLookupConfig, EmbLookupModel};
use emblookup_kg::{generate, KnowledgeGraph, SynthKgConfig};
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

fn fresh_service() -> (EmbLookup, &'static KnowledgeGraph) {
    let (model, kg) = shared_model();
    let compression = model.config().compression;
    (EmbLookup::from_model(Arc::clone(model), kg, compression), kg)
}

fn start(config: ServeConfig) -> (Server, Arc<MetricsRegistry>) {
    let (service, kg) = fresh_service();
    let registry = Arc::new(MetricsRegistry::new());
    let server = Server::start_with_registry(service, kg, config, Arc::clone(&registry))
        .expect("server must start");
    (server, registry)
}

fn counter(registry: &MetricsRegistry, name: Name) -> u64 {
    registry.snapshot().counter(name.as_str()).unwrap_or(0)
}

#[test]
fn smoke_healthz_metrics_lookup_and_bulk() {
    let (server, registry) = start(ServeConfig {
        workers: 2,
        queue_cap: 8,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "{\"status\":\"ok\"}");

    let (_, kg) = shared_model();
    let label = kg.label(emblookup_kg::EntityId(0));
    let body = format!("{{\"q\":\"{}\",\"k\":3}}", label);
    let resp = client::post_json(addr, "/lookup", &body, &[]).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert!(resp.body.contains("\"rung\":\"full\""), "body: {}", resp.body);
    assert!(resp.body.contains("\"degraded\":false"));
    assert!(resp.body.contains("\"results\":["));

    let bulk = format!(
        "{{\"queries\":[\"{}\",\"{}\"],\"k\":2}}",
        kg.label(emblookup_kg::EntityId(1)),
        kg.label(emblookup_kg::EntityId(2)),
    );
    let resp = client::post_json(addr, "/lookup/bulk", &bulk, &[]).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert!(resp.body.contains("\"rung\":\"full\""));

    // Prometheus exposition carries the whole serve.* family.
    let metrics = client::get(addr, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    for series in [
        "emblookup_serve_requests_total",
        "emblookup_serve_admitted_total",
        "emblookup_serve_shed_total",
        "emblookup_serve_errors_total",
        "emblookup_serve_deadline_exceeded_total",
        "emblookup_serve_degraded_flat_total",
        "emblookup_serve_degraded_qgram_total",
        "emblookup_serve_panics_total",
        "emblookup_serve_queue_depth",
        "emblookup_serve_latency_seconds",
    ] {
        assert!(metrics.body.contains(series), "missing {series} in:\n{}", metrics.body);
    }

    assert_eq!(counter(&registry, names::SERVE_ADMITTED), 2);
    assert_eq!(counter(&registry, names::SERVE_SHED), 0);
    // healthz + metrics + 2 POSTs, at least (metrics GET above counts itself)
    assert!(counter(&registry, names::SERVE_REQUESTS) >= 4);
}

#[test]
fn zero_capacity_queue_sheds_posts_but_serves_control_plane() {
    let (server, registry) = start(ServeConfig {
        workers: 1,
        queue_cap: 0,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let resp = client::post_json(addr, "/lookup", "{\"q\":\"x\",\"k\":1}", &[]).unwrap();
    assert_eq!(resp.status, 429);
    // Jittered retry hints: whole seconds in the standard header, exact
    // milliseconds (within [base/2, 3*base/2]) in the extension header.
    let retry_s: u64 = resp.header("retry-after").unwrap().parse().unwrap();
    assert!((1..=2).contains(&retry_s), "retry-after {retry_s}s");
    let retry_ms: u64 = resp
        .header("x-emblookup-retry-after-ms")
        .unwrap()
        .parse()
        .unwrap();
    assert!((500..=1500).contains(&retry_ms), "retry-after {retry_ms}ms");
    assert!(resp.body.contains("\"error\":\"shed\""));

    // Shedding the data plane must not take down the control plane.
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    let metrics = client::get(addr, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("emblookup_serve_shed_total 1"));

    assert_eq!(counter(&registry, names::SERVE_SHED), 1);
    assert_eq!(counter(&registry, names::SERVE_ADMITTED), 0);
}

/// Budget 100 virtual ms; escalating injected encode latency walks the
/// ladder one rung per request: full → flat → qgram → 504.
fn escalating_plan() -> FaultConfig {
    let lat = |ms| StageFaults {
        encode_latency_ms: ms,
        ..StageFaults::default()
    };
    FaultConfig::Scripted {
        plan: vec![lat(0), lat(60), lat(90), lat(130)],
        virtual_time: true,
    }
}

#[test]
fn ladder_engages_in_order_under_escalating_latency() {
    let (server, registry) = start(ServeConfig {
        workers: 2,
        default_deadline_ms: 100,
        faults: Some(escalating_plan()),
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let (_, kg) = shared_model();
    let body = format!("{{\"q\":\"{}\",\"k\":3}}", kg.label(emblookup_kg::EntityId(0)));

    let mut statuses = Vec::new();
    let mut rungs = Vec::new();
    for _ in 0..4 {
        let resp = client::post_json(addr, "/lookup", &body, &[]).unwrap();
        statuses.push(resp.status);
        rungs.push(
            ["\"rung\":\"full\"", "\"rung\":\"flat\"", "\"rung\":\"qgram\""]
                .iter()
                .find(|tag| resp.body.contains(*tag))
                .map(|tag| tag.split('"').nth(3).unwrap_or("").to_string()),
        );
    }
    assert_eq!(statuses, vec![200, 200, 200, 504]);
    assert_eq!(
        rungs,
        vec![
            Some("full".to_string()),
            Some("flat".to_string()),
            Some("qgram".to_string()),
            None
        ]
    );

    // Counters must agree exactly with the rungs taken.
    assert_eq!(counter(&registry, names::SERVE_DEGRADED_FLAT), 1);
    assert_eq!(counter(&registry, names::SERVE_DEGRADED_QGRAM), 1);
    assert_eq!(counter(&registry, names::SERVE_DEADLINE_EXCEEDED), 1);
    assert_eq!(counter(&registry, names::SERVE_PANICS), 0);
    assert_eq!(counter(&registry, names::SERVE_ADMITTED), 4);
}

#[test]
fn deadline_response_names_the_stage() {
    let (server, _registry) = start(ServeConfig {
        workers: 1,
        default_deadline_ms: 100,
        faults: Some(FaultConfig::Scripted {
            plan: vec![StageFaults {
                admit_latency_ms: 150,
                ..StageFaults::default()
            }],
            virtual_time: true,
        }),
        ..ServeConfig::default()
    });
    let resp = client::post_json(server.addr(), "/lookup", "{\"q\":\"x\"}", &[]).unwrap();
    assert_eq!(resp.status, 504);
    assert_eq!(
        resp.body,
        "{\"error\":\"deadline\",\"stage\":\"admit\",\"budget_ms\":100}"
    );
}

#[test]
fn backend_error_and_poison_degrade_to_flat() {
    let (server, registry) = start(ServeConfig {
        workers: 2,
        faults: Some(FaultConfig::Scripted {
            plan: vec![
                StageFaults { backend_error: true, ..StageFaults::default() },
                StageFaults { poison: true, ..StageFaults::default() },
            ],
            virtual_time: true,
        }),
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let (_, kg) = shared_model();
    let body = format!("{{\"q\":\"{}\",\"k\":3}}", kg.label(emblookup_kg::EntityId(3)));

    for expected in ["backend error", "poisoned scores"] {
        let resp = client::post_json(addr, "/lookup", &body, &[]).unwrap();
        assert_eq!(resp.status, 200, "{expected}: {}", resp.body);
        assert!(
            resp.body.contains("\"rung\":\"flat\""),
            "{expected} should degrade to flat: {}",
            resp.body
        );
        assert!(!resp.body.contains("NaN"), "poison must never leak: {}", resp.body);
    }
    assert_eq!(counter(&registry, names::SERVE_DEGRADED_FLAT), 2);
}

#[test]
fn panicking_backend_costs_one_500_then_serving_continues() {
    let (server, registry) = start(ServeConfig {
        workers: 2,
        faults: Some(FaultConfig::Scripted {
            // Only request 0 panics; the plan is long enough that the
            // follow-up requests stay clean instead of cycling back
            // into the fault.
            plan: vec![
                StageFaults { panic_in_search: true, ..StageFaults::default() },
                StageFaults::default(),
                StageFaults::default(),
                StageFaults::default(),
                StageFaults::default(),
            ],
            virtual_time: true,
        }),
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let (_, kg) = shared_model();
    let body = format!("{{\"q\":\"{}\",\"k\":3}}", kg.label(emblookup_kg::EntityId(0)));

    let first = client::post_json(addr, "/lookup", &body, &[]).unwrap();
    assert_eq!(first.status, 500, "body: {}", first.body);
    assert!(first.body.contains("contained"));
    assert_eq!(counter(&registry, names::SERVE_PANICS), 1);

    // The panic was contained to that one request: the server still
    // answers the data plane and the control plane.
    for _ in 0..3 {
        let resp = client::post_json(addr, "/lookup", &body, &[]).unwrap();
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        assert!(resp.body.contains("\"rung\":\"full\""));
    }
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    assert_eq!(counter(&registry, names::SERVE_PANICS), 1);
}

#[test]
fn responses_bit_identical_across_pool_widths() {
    // Same model, same fault script, same request sequence — the only
    // variable is the worker-pool width. Every response body must match
    // byte for byte (the determinism contract of DESIGN.md §7 extended
    // to the serving layer).
    let plan = FaultConfig::Scripted {
        plan: vec![
            StageFaults::default(),
            StageFaults { encode_latency_ms: 60, ..StageFaults::default() },
            StageFaults { encode_latency_ms: 90, ..StageFaults::default() },
            StageFaults { backend_error: true, ..StageFaults::default() },
            StageFaults { poison: true, ..StageFaults::default() },
            StageFaults { encode_latency_ms: 130, ..StageFaults::default() },
        ],
        virtual_time: true,
    };
    let config = |workers| ServeConfig {
        workers,
        default_deadline_ms: 100,
        faults: Some(plan.clone()),
        ..ServeConfig::default()
    };
    let (narrow, _) = start(config(1));
    let (wide, _) = start(config(4));
    let (_, kg) = shared_model();

    let queries: Vec<String> = (0..6u32)
        .map(|i| kg.label(emblookup_kg::EntityId(i % 4)).to_string())
        .collect();
    for (i, q) in queries.iter().enumerate() {
        let body = format!("{{\"q\":\"{q}\",\"k\":5}}");
        let a = client::post_json(narrow.addr(), "/lookup", &body, &[]).unwrap();
        let b = client::post_json(wide.addr(), "/lookup", &body, &[]).unwrap();
        assert_eq!(a.status, b.status, "request {i} status diverged");
        assert_eq!(a.body, b.body, "request {i} body diverged");
    }
}

#[test]
fn seeded_random_faults_never_crash_or_hang() {
    let (server, registry) = start(ServeConfig {
        workers: 2,
        default_deadline_ms: 100,
        faults: Some(FaultConfig::Random {
            seed: 2026,
            latency_prob: 0.6,
            max_latency_ms: 160,
            backend_error_prob: 0.25,
            poison_prob: 0.25,
            panic_prob: 0.15,
            shed_prob: 0.0,
            shard_fault_prob: 0.0,
            virtual_time: true,
        }),
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let (_, kg) = shared_model();

    for i in 0..40u32 {
        let body = format!("{{\"q\":\"{}\",\"k\":3}}", kg.label(emblookup_kg::EntityId(i % 4)));
        let resp = client::post_json(addr, "/lookup", &body, &[]).unwrap();
        assert!(
            matches!(resp.status, 200 | 500 | 504),
            "request {i} got unexpected status {}: {}",
            resp.status,
            resp.body
        );
    }
    // Every admitted request resolved; the server is still healthy.
    assert_eq!(counter(&registry, names::SERVE_ADMITTED), 40);
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
}

#[test]
fn malformed_requests_get_400_not_a_crash() {
    let (server, registry) = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    for bad in [
        "not json",
        "{\"k\":3}",
        "{\"q\":42}",
        "{\"queries\":\"not an array\"}",
    ] {
        let resp = client::post_json(addr, "/lookup", bad, &[]).unwrap();
        assert_eq!(resp.status, 400, "payload {bad:?} got {}", resp.status);
    }
    let resp = client::post_json(addr, "/lookup/bulk", "{\"k\":1}", &[]).unwrap();
    assert_eq!(resp.status, 400);
    let resp = client::get(addr, "/nope").unwrap();
    assert_eq!(resp.status, 404);
    assert!(counter(&registry, names::SERVE_ERRORS) >= 5);
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
}

/// Masks every `"<key>":<digits>` occurrence so span trees can be
/// compared across pool widths (only thread ordinals may differ).
fn mask_numeric_key(s: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find(&needle) {
        let (head, tail) = rest.split_at(pos + needle.len());
        out.push_str(head);
        out.push('T');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

#[test]
fn traces_capture_stage_trees_and_honor_client_ids() {
    let (server, registry) = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let (_, kg) = shared_model();
    let body = format!("{{\"q\":\"{}\",\"k\":3}}", kg.label(emblookup_kg::EntityId(0)));

    // A client-supplied trace id is echoed back and fetchable by id.
    let resp = client::post_json(addr, "/lookup", &body, &[("x-emblookup-trace-id", "abc123")])
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-emblookup-trace-id"), Some("0000000000abc123"));
    let fetched = client::get(addr, "/debug/traces/abc123").unwrap();
    assert_eq!(fetched.status, 200, "body: {}", fetched.body);
    for span in [
        "\"name\":\"serve.request\"",
        "\"name\":\"stage.admit\"",
        "\"name\":\"stage.decode\"",
        "\"name\":\"stage.encode\"",
        "\"name\":\"stage.search\"",
        "\"name\":\"stage.rank\"",
    ] {
        assert!(fetched.body.contains(span), "missing {span} in:\n{}", fetched.body);
    }
    assert!(fetched.body.contains("\"backend\":"), "search span lacks backend annotation");
    assert!(fetched.body.contains("\"visited\":"), "search span lacks visited annotation");

    // A bulk's search stage holds one stage.shard span per attempt.
    let bulk = format!(
        "{{\"queries\":[\"{}\",\"{}\",\"{}\"],\"k\":2}}",
        kg.label(emblookup_kg::EntityId(1)),
        kg.label(emblookup_kg::EntityId(2)),
        kg.label(emblookup_kg::EntityId(3)),
    );
    let resp = client::post_json(addr, "/lookup/bulk", &bulk, &[("x-emblookup-trace-id", "beef")])
        .unwrap();
    assert_eq!(resp.status, 200);
    let fetched = client::get(addr, "/debug/traces/beef").unwrap();
    assert_eq!(fetched.status, 200);
    assert!(
        fetched.body.contains("\"name\":\"stage.shard\""),
        "bulk trace lacks stage.shard spans:\n{}",
        fetched.body
    );

    // Unknown and malformed ids are a 404, not a crash.
    assert_eq!(client::get(addr, "/debug/traces/ffffffffffffffff").unwrap().status, 404);
    assert_eq!(client::get(addr, "/debug/traces/zz").unwrap().status, 404);
    assert_eq!(counter(&registry, names::TRACE_RECORDED), 2);
    assert_eq!(counter(&registry, names::TRACE_DROPPED), 0);
}

/// A scripted storm with explicit slow threshold: one request per
/// trigger class (plus clean ones), replayed identically at both pool
/// widths.
fn storm_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        default_deadline_ms: 100,
        slow_trace_ms: 40,
        faults: Some(FaultConfig::Scripted {
            plan: vec![
                StageFaults::default(),
                StageFaults { encode_latency_ms: 60, ..StageFaults::default() },
                StageFaults { shed: true, ..StageFaults::default() },
                StageFaults { search_latency_ms: 30, ..StageFaults::default() },
                StageFaults { backend_error: true, ..StageFaults::default() },
                StageFaults { panic_in_search: true, ..StageFaults::default() },
                StageFaults { admit_latency_ms: 300, ..StageFaults::default() },
                StageFaults::default(),
            ],
            virtual_time: true,
        }),
        ..ServeConfig::default()
    }
}

fn run_storm(addr: std::net::SocketAddr) -> Vec<u16> {
    let (_, kg) = shared_model();
    let mut statuses = Vec::new();
    for i in 0..7u32 {
        let body = format!("{{\"q\":\"{}\",\"k\":3}}", kg.label(emblookup_kg::EntityId(i % 4)));
        statuses.push(client::post_json(addr, "/lookup", &body, &[]).unwrap().status);
    }
    let bulk = format!(
        "{{\"queries\":[\"{}\",\"{}\"],\"k\":2}}",
        kg.label(emblookup_kg::EntityId(0)),
        kg.label(emblookup_kg::EntityId(1)),
    );
    statuses.push(client::post_json(addr, "/lookup/bulk", &bulk, &[]).unwrap().status);
    statuses
}

#[test]
fn fault_storm_retains_every_trigger_class() {
    let (server, registry) = start(storm_config(2));
    let addr = server.addr();
    let statuses = run_storm(addr);
    assert_eq!(statuses, vec![200, 200, 429, 200, 200, 500, 504, 200]);

    let traces = client::get(addr, "/debug/traces").unwrap();
    assert_eq!(traces.status, 200);
    for trigger in ["slow", "shed", "degraded", "error", "panic"] {
        assert!(
            traces.body.contains(&format!("\"{trigger}\"")),
            "no retained trace for trigger {trigger}:\n{}",
            traces.body
        );
    }
    // Every request (shed included) left a complete tree in the ring.
    assert_eq!(counter(&registry, names::TRACE_RECORDED), 8);
    assert!(counter(&registry, names::TRACE_RETAINED) >= 5);

    // The Chrome export is valid JSON in trace_event shape.
    let chrome = client::get(addr, "/debug/traces/chrome").unwrap();
    assert_eq!(chrome.status, 200);
    let parsed = emblookup_serve::json::parse(&chrome.body).expect("chrome export must parse");
    let events = parsed.get("traceEvents").and_then(|v| v.as_arr().map(|a| a.len()));
    assert!(events.is_some_and(|n| n > 0), "no traceEvents in:\n{}", chrome.body);
    assert!(chrome.body.contains("\"ph\":\"X\""));
}

#[test]
fn debug_traces_bit_identical_across_pool_widths() {
    // The tracing extension of the §7 determinism contract: under the
    // virtual-time fault clock the whole captured span forest — ids,
    // names, durations, annotations, triggers — must match byte for
    // byte between a single-threaded and a wide pool; only the thread
    // ordinal of a span may differ.
    let (narrow, _) = start(storm_config(1));
    let (wide, _) = start(storm_config(4));
    assert_eq!(run_storm(narrow.addr()), run_storm(wide.addr()));

    let a = client::get(narrow.addr(), "/debug/traces").unwrap();
    let b = client::get(wide.addr(), "/debug/traces").unwrap();
    assert_eq!(a.status, 200);
    assert_eq!(b.status, 200);
    let mask = |s: &str| mask_numeric_key(s, "thread");
    assert_eq!(mask(&a.body), mask(&b.body), "span forests diverged across widths");

    let a = client::get(narrow.addr(), "/debug/traces/chrome").unwrap();
    let b = client::get(wide.addr(), "/debug/traces/chrome").unwrap();
    let mask = |s: &str| mask_numeric_key(s, "tid");
    assert_eq!(mask(&a.body), mask(&b.body), "chrome exports diverged across widths");
}

#[test]
fn latency_exemplar_resolves_to_a_fetchable_trace() {
    let (server, _registry) = start(storm_config(2));
    let addr = server.addr();
    run_storm(addr);

    let metrics = client::get(addr, "/metrics").unwrap();
    let exemplar_line = metrics
        .body
        .lines()
        .find(|l| l.starts_with("emblookup_serve_latency_seconds") && l.contains("trace_id="))
        .unwrap_or_else(|| panic!("no exemplar on latency series:\n{}", metrics.body));
    let id = exemplar_line
        .split("trace_id=\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("exemplar carries a trace id");
    let fetched = client::get(addr, &format!("/debug/traces/{id}")).unwrap();
    assert_eq!(fetched.status, 200, "exemplar trace {id} not fetchable");
    assert!(fetched.body.contains(&format!("\"trace_id\":\"{id}\"")));
}

#[test]
fn deadline_header_overrides_and_is_clamped() {
    let (server, _registry) = start(ServeConfig {
        workers: 1,
        default_deadline_ms: 250,
        faults: Some(FaultConfig::Scripted {
            plan: vec![StageFaults {
                admit_latency_ms: 20_000,
                ..StageFaults::default()
            }],
            virtual_time: true,
        }),
        ..ServeConfig::default()
    });
    // Client asks for far more than the server allows; the 10 s clamp
    // keeps the injected 20 s of latency fatal.
    let resp = client::post_json(
        server.addr(),
        "/lookup",
        "{\"q\":\"x\"}",
        &[("x-emblookup-deadline-ms", "600000")],
    )
    .unwrap();
    assert_eq!(resp.status, 504);
    assert!(resp.body.contains("\"budget_ms\":10000"), "body: {}", resp.body);
}

/// Spins until `ready` holds; the real-time faults below give it two
/// orders of magnitude more time than it needs.
fn wait_until(what: &str, ready: impl Fn() -> bool) {
    let give_up = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !ready() {
        assert!(std::time::Instant::now() < give_up, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

#[test]
fn time_spent_queued_is_charged_to_the_deadline() {
    // Real-time faults: request 0 holds the only slot for 150 ms.
    let (server, registry) = start(ServeConfig {
        workers: 1,
        queue_cap: 2,
        faults: Some(FaultConfig::Scripted {
            plan: vec![
                StageFaults { search_latency_ms: 150, ..StageFaults::default() },
                StageFaults::default(),
            ],
            virtual_time: false,
        }),
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let (_, kg) = shared_model();
    let body = format!("{{\"q\":\"{}\",\"k\":3}}", kg.label(emblookup_kg::EntityId(0)));

    std::thread::scope(|s| {
        let slow = s.spawn(|| {
            client::post_json(addr, "/lookup", &body, &[("x-emblookup-deadline-ms", "1000")])
        });
        wait_until("request 0 to take the slot", || {
            counter(&registry, names::SERVE_ADMITTED) == 1
        });
        // 50 ms of budget, all of it (and more) spent waiting behind
        // request 0: the deadline is the client's, not the handler's.
        let queued =
            client::post_json(addr, "/lookup", &body, &[("x-emblookup-deadline-ms", "50")])
                .unwrap();
        assert_eq!(queued.status, 504, "body: {}", queued.body);
        assert_eq!(
            queued.body,
            "{\"error\":\"deadline\",\"stage\":\"admit\",\"budget_ms\":50}"
        );
        // Its trace shows the wait as the admit stage.
        let id = queued.header("x-emblookup-trace-id").expect("trace id header");
        let trace = client::get(addr, &format!("/debug/traces/{id}")).unwrap();
        assert!(trace.body.contains("\"queued\":0"), "trace: {}", trace.body);
        assert_eq!(slow.join().unwrap().unwrap().status, 200);
    });
    assert_eq!(counter(&registry, names::SERVE_DEADLINE_EXCEEDED), 1);
    assert_eq!(counter(&registry, names::SERVE_ADMITTED), 2);
}

#[test]
fn gate_runs_one_queues_one_sheds_the_third() {
    // Real-time faults: every admitted request holds its slot for 200 ms.
    let (server, registry) = start(ServeConfig {
        workers: 1,
        queue_cap: 1,
        default_deadline_ms: 5_000,
        faults: Some(FaultConfig::Scripted {
            plan: vec![StageFaults { search_latency_ms: 200, ..StageFaults::default() }],
            virtual_time: false,
        }),
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let (_, kg) = shared_model();
    let body = format!("{{\"q\":\"{}\",\"k\":3}}", kg.label(emblookup_kg::EntityId(0)));
    let post = || client::post_json(addr, "/lookup", &body, &[]).unwrap().status;

    let mut statuses = std::thread::scope(|s| {
        let running = s.spawn(post);
        wait_until("the first request to take the slot", || {
            counter(&registry, names::SERVE_ADMITTED) == 1
        });
        let waiting = s.spawn(post);
        // The control plane answers while one request computes and one
        // waits — and a scrape is what refreshes the queue-depth gauge.
        wait_until("the second request to queue", || {
            let metrics = client::get(addr, "/metrics").unwrap();
            metrics.status == 200 && metrics.body.contains("emblookup_serve_queue_depth 1")
        });
        assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
        let third = post();
        vec![running.join().unwrap(), waiting.join().unwrap(), third]
    });
    assert_eq!(statuses[2], 429, "one running + one waiting: the third is refused");
    statuses.sort_unstable();
    assert_eq!(statuses, vec![200, 200, 429]);
    assert_eq!(counter(&registry, names::SERVE_SHED), 1);
    assert_eq!(counter(&registry, names::SERVE_ADMITTED), 2);
}

/// Reads one `content-length`-framed response off a raw socket.
fn read_raw_response(reader: &mut std::io::BufReader<std::net::TcpStream>) -> (u16, String) {
    use std::io::{BufRead, Read};
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let status = line.split(' ').nth(1).expect("status line").parse().unwrap();
    let mut len = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line == "\r\n" {
            break;
        }
        if let Some(v) = line.strip_prefix("content-length: ") {
            len = v.trim().parse().unwrap();
        }
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

/// Two requests written in one `write_all` come back in order, and the
/// second does not wait ~40 ms for Nagle and the client's delayed ACK:
/// the stall is a kernel constant, so the 10 ms bound has a 4x margin.
#[test]
fn pipelined_requests_are_answered_in_order_without_stalling() {
    use std::io::Write;
    let (server, _registry) = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut reader = std::io::BufReader::new(stream);

    let mut rounds = Vec::new();
    for _ in 0..20 {
        let begin = std::time::Instant::now();
        reader
            .get_mut()
            .write_all(b"GET /healthz HTTP/1.1\r\n\r\nGET /nope HTTP/1.1\r\n\r\n")
            .unwrap();
        let first = read_raw_response(&mut reader);
        let second = read_raw_response(&mut reader);
        rounds.push(begin.elapsed());
        assert_eq!(first, (200, "{\"status\":\"ok\"}".to_string()));
        assert_eq!(second, (404, "{\"error\":\"not found\"}".to_string()));
    }
    rounds.sort_unstable();
    assert!(
        rounds[rounds.len() / 2] < std::time::Duration::from_millis(10),
        "median pipelined round took {:?}: {rounds:?}",
        rounds[rounds.len() / 2]
    );

    // A body-carrying request directly followed by another: what the
    // connection's buffer read past the body is the next request.
    let (_, kg) = shared_model();
    let body = format!("{{\"q\":\"{}\",\"k\":3}}", kg.label(emblookup_kg::EntityId(0)));
    let wire = format!(
        "POST /lookup HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}GET /healthz HTTP/1.1\r\n\r\n",
        body.len()
    );
    reader.get_mut().write_all(wire.as_bytes()).unwrap();
    let (status, lookup) = read_raw_response(&mut reader);
    assert_eq!(status, 200, "body: {lookup}");
    assert!(lookup.contains("\"rung\":\"full\""), "body: {lookup}");
    assert_eq!(read_raw_response(&mut reader), (200, "{\"status\":\"ok\"}".to_string()));
}

/// A chunked `POST` used to be answered twice: framed as a bodiless
/// request (`400`, keep-alive), then its chunks parsed as a second
/// request head (`400`, close). It is one refusal now, and the chunks
/// are never read as a request.
#[test]
fn a_chunked_post_gets_one_400_and_the_connection_closes() {
    use std::io::{Read, Write};
    let (server, registry) = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            b"POST /lookup HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n\
              f\r\n{\"q\":\"x\",\"k\":2}\r\n0\r\n\r\n",
        )
        .unwrap();
    // To the close; a reset instead of a clean end (the server hung up
    // on bytes it never read) still comes after the answer.
    let mut wire = Vec::new();
    let _ = stream.read_to_end(&mut wire);
    let wire = String::from_utf8(wire).unwrap();
    assert_eq!(wire.matches("HTTP/1.1 ").count(), 1, "wire: {wire}");
    assert!(wire.starts_with("HTTP/1.1 400 "), "wire: {wire}");
    assert!(wire.contains("connection: close"), "wire: {wire}");
    assert!(wire.ends_with("{\"error\":\"transfer-encoding is not supported\"}"), "wire: {wire}");
    assert_eq!(counter(&registry, names::SERVE_ERRORS), 1);
    assert_eq!(counter(&registry, names::SERVE_ADMITTED), 0);
}
