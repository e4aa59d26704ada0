//! Command-line interface for the EmbLookup library.
//!
//! ```text
//! emblookup-cli generate --out kg.bin [--entities 600] [--seed 42]
//! emblookup-cli train    --kg kg.bin --out model.bin [--epochs 16] [--seed 42]
//! emblookup-cli lookup   --kg kg.bin --model model.bin --query "germoney" [--k 10]
//! emblookup-cli serve    --kg kg.bin [--model model.bin] [--addr 127.0.0.1:7878]
//! emblookup-cli query    --addr 127.0.0.1:7878 --query "germoney" [--k 10]
//! emblookup-cli stats    --kg kg.bin
//! emblookup-cli trace    --addr 127.0.0.1:7878 [--id <hex>] [--chrome]
//! ```
//!
//! `train` prints one line per epoch (phase, active triplets, mean loss),
//! one line of fastText's skip-gram pairs and how many of them took every
//! dot before the first update, and then the metrics registry's table: the
//! wall-time of every training and index-build stage.
//!
//! `trace` talks to the server's trace store (DESIGN.md §9):
//! without flags it lists retained + recent traces, `--id` pretty-prints
//! one span tree, and `--chrome` dumps Chrome `trace_event` JSON that
//! loads in `about:tracing` or <https://ui.perfetto.dev>.

#![forbid(unsafe_code)]

use emblookup::core::{EmbLookup, EmbLookupConfig, EmbLookupModel};
use emblookup::kg::{generate, kg_from_bytes, kg_to_bytes, LookupService, SynthKgConfig};
use emblookup::obs::json::{self, Json};
use emblookup::serve::{client, ServeConfig, Server};
use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(&args[1..]),
        "train" => cmd_train(&args[1..]),
        "lookup" => cmd_lookup(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "query" => cmd_query(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
EmbLookup — embedding-based entity lookup for knowledge graphs

USAGE:
  emblookup-cli generate --out <kg.bin> [--entities N] [--seed S]
  emblookup-cli train    --kg <kg.bin> --out <model.bin> [--epochs E] [--triplets T] [--seed S]
  emblookup-cli lookup   --kg <kg.bin> --model <model.bin> --query <text> [--k K]
  emblookup-cli serve    --kg <kg.bin> [--model <model.bin>] [--addr A] [--workers N]
                         [--queue-cap N] [--deadline-ms D] [--shards N]
                         [--seed S]   (used only to train when no --model is given)
  emblookup-cli query    --addr <host:port> --query <text> [--k K] [--deadline-ms D]
                         [--repeat N]
  emblookup-cli stats    --kg <kg.bin>
  emblookup-cli trace    --addr <host:port> [--id <hex>] [--chrome]";

/// Reads `--name value` style flags.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn required(args: &[String], name: &str) -> Result<String, String> {
    flag(args, name).ok_or_else(|| format!("missing required flag {name}"))
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid value for {name}: {v:?}")),
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let out = required(args, "--out")?;
    let entities: usize = parsed(args, "--entities", 600)?;
    let seed: u64 = parsed(args, "--seed", 42)?;
    // scale the small preset proportionally
    let base = SynthKgConfig::small(seed);
    let scale = (entities as f64 / base.total_entities() as f64).max(0.05);
    let config = SynthKgConfig {
        countries: ((base.countries as f64 * scale) as usize).max(2),
        cities: ((base.cities as f64 * scale) as usize).max(5),
        persons: ((base.persons as f64 * scale) as usize).max(5),
        organizations: ((base.organizations as f64 * scale) as usize).max(2),
        films: ((base.films as f64 * scale) as usize).max(2),
        ..base
    };
    let synth = generate(config);
    std::fs::write(&out, kg_to_bytes(&synth.kg)).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} entities, {} facts)",
        out,
        synth.kg.num_entities(),
        synth.kg.num_facts()
    );
    Ok(())
}

fn load_kg(args: &[String]) -> Result<emblookup::kg::KnowledgeGraph, String> {
    let path = required(args, "--kg")?;
    let bytes = std::fs::read(&path).map_err(|e| format!("{path}: {e}"))?;
    kg_from_bytes(&bytes)
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let kg = load_kg(args)?;
    let out = required(args, "--out")?;
    let seed: u64 = parsed(args, "--seed", 42)?;
    let mut config = EmbLookupConfig::fast(seed);
    config.epochs = parsed(args, "--epochs", config.epochs)?;
    config.triplets_per_entity = parsed(args, "--triplets", config.triplets_per_entity)?;
    println!(
        "training on {} entities ({} epochs, {} triplets/entity)…",
        kg.num_entities(),
        config.epochs,
        config.triplets_per_entity
    );
    let service = EmbLookup::train_on(&kg, config);
    for e in &service.report().epochs {
        println!(
            "epoch {:>3}  {:<7}  {:>7} active triplets  mean loss {:.4}",
            e.epoch,
            if e.online_phase { "online" } else { "offline" },
            e.active_triplets,
            e.mean_loss
        );
    }
    println!("final loss {:.4}", service.report().final_loss());
    let (pairs, dots_first) = service.model().semantic().pair_counts();
    println!("fasttext: {pairs} pairs, {dots_first} dots-first");
    println!("{}", emblookup::obs::global().snapshot().render_table());
    std::fs::write(&out, service.model().to_bytes()).map_err(|e| e.to_string())?;
    println!("wrote {out}");
    Ok(())
}

fn cmd_lookup(args: &[String]) -> Result<(), String> {
    let kg = load_kg(args)?;
    let model_path = required(args, "--model")?;
    let query = required(args, "--query")?;
    let k: usize = parsed(args, "--k", 10)?;
    let bytes = std::fs::read(&model_path).map_err(|e| format!("{model_path}: {e}"))?;
    // the default configuration has `train`'s architecture; every weight
    // comes from the file
    let model = EmbLookupModel::from_bytes(&bytes, EmbLookupConfig::default())?;
    let service = EmbLookup::from_model(Arc::new(model), &kg, emblookup::core::Compression::default_pq());
    for (rank, c) in service.lookup(&query, k).iter().enumerate() {
        println!("{:>2}. {:<32} {:.4}", rank + 1, kg.label(c.entity), c.score);
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let kg = load_kg(args)?;
    let service = match flag(args, "--model") {
        Some(model_path) => {
            let bytes = std::fs::read(&model_path).map_err(|e| format!("{model_path}: {e}"))?;
            // as in `cmd_lookup`: every weight comes from the file
            let model = EmbLookupModel::from_bytes(&bytes, EmbLookupConfig::default())?;
            EmbLookup::from_model(Arc::new(model), &kg, emblookup::core::Compression::default_pq())
        }
        None => {
            let seed: u64 = parsed(args, "--seed", 42)?;
            println!("no --model given; training on {} entities…", kg.num_entities());
            EmbLookup::try_train_on(&kg, EmbLookupConfig::fast(seed)).map_err(|e| e.to_string())?
        }
    };
    let config = ServeConfig {
        addr: flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".to_string()),
        workers: parsed(args, "--workers", 0)?,
        queue_cap: parsed(args, "--queue-cap", 64)?,
        default_deadline_ms: parsed(args, "--deadline-ms", 250)?,
        shards: parsed(args, "--shards", 1)?,
        ..ServeConfig::default()
    };
    let shards = config.shards;
    let server = Server::start(service, &kg, config).map_err(|e| e.to_string())?;
    println!("serving on http://{} ({} shard(s))", server.addr(), shards.max(1));
    println!("  POST /lookup        {{\"q\": \"...\", \"k\": 10}}");
    println!("  POST /lookup/bulk   {{\"queries\": [\"...\"], \"k\": 10}}");
    println!("  GET  /healthz | /metrics");
    // Serve until the process is killed; the accept loop owns the pool.
    loop {
        std::thread::park();
    }
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let addr = required(args, "--addr")?;
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|_| format!("invalid --addr {addr:?} (expected host:port)"))?;
    let query = required(args, "--query")?;
    let k: usize = parsed(args, "--k", 10)?;
    let body = format!(
        "{{\"q\":\"{}\",\"k\":{}}}",
        emblookup::obs::escape_json(&query),
        k
    );
    let headers: Vec<(String, String)> = match flag(args, "--deadline-ms") {
        Some(ms) => vec![("x-emblookup-deadline-ms".to_string(), ms)],
        None => Vec::new(),
    };
    let header_refs: Vec<(&str, &str)> = headers
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_str()))
        .collect();
    let repeat: usize = parsed(args, "--repeat", 1)?;
    if repeat > 1 {
        return query_repeat(addr, &body, &header_refs, repeat);
    }
    let resp = client::post_json(addr, "/lookup", &body, &header_refs)
        .map_err(|e| format!("request failed: {e}"))?;
    println!("HTTP {}", resp.status);
    println!("{}", resp.body);
    if resp.status == 200 {
        Ok(())
    } else {
        Err(format!("server answered {}", resp.status))
    }
}

/// Bulk query loop over one keep-alive connection: the whole point of
/// persistent connections is paying connect cost once, so the report
/// separates per-connection setup time from per-request latency.
fn query_repeat(
    addr: std::net::SocketAddr,
    body: &str,
    headers: &[(&str, &str)],
    repeat: usize,
) -> Result<(), String> {
    let t0 = std::time::Instant::now();
    let mut conn = client::Connection::open(addr).map_err(|e| format!("connect failed: {e}"))?;
    let connect_us = t0.elapsed().as_micros();
    let mut lat_us: Vec<u128> = Vec::with_capacity(repeat);
    let mut ok = 0usize;
    let mut last_status = 0u16;
    for _ in 0..repeat {
        let t = std::time::Instant::now();
        let resp = conn
            .post_json("/lookup", body, headers)
            .map_err(|e| format!("request failed: {e}"))?;
        lat_us.push(t.elapsed().as_micros());
        last_status = resp.status;
        if resp.status == 200 {
            ok += 1;
        }
    }
    lat_us.sort_unstable();
    let pct = |q: f64| lat_us[((lat_us.len() - 1) as f64 * q) as usize];
    println!("{repeat} requests over one keep-alive connection: {ok} ok");
    println!("  per-connection: connect {connect_us}us (paid once)");
    println!(
        "  per-request:    p50 {}us  p99 {}us  max {}us",
        pct(0.50),
        pct(0.99),
        lat_us[lat_us.len() - 1]
    );
    if ok == repeat {
        Ok(())
    } else {
        Err(format!("{} request(s) failed (last status {last_status})", repeat - ok))
    }
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let kg = load_kg(args)?;
    println!("entities:   {}", kg.num_entities());
    println!("types:      {}", kg.num_types());
    println!("properties: {}", kg.num_properties());
    println!("facts:      {}", kg.num_facts());
    let aliases: usize = kg.entities().map(|e| e.aliases.len()).sum();
    println!("aliases:    {aliases}");
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let addr = required(args, "--addr")?;
    let addr = resolve(&addr).ok_or_else(|| format!("cannot resolve address {addr:?}"))?;
    let id = flag(args, "--id");
    let chrome = args.iter().any(|a| a == "--chrome");
    let path = match (&id, chrome) {
        (Some(id), _) => format!("/debug/traces/{id}"),
        (None, true) => "/debug/traces/chrome".to_string(),
        (None, false) => "/debug/traces".to_string(),
    };
    let resp = client::get(addr, &path).map_err(|e| format!("GET {path} failed: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET {path} returned {}: {}", resp.status, resp.body));
    }
    if chrome && id.is_none() {
        // Raw pass-through: the bytes are the artifact.
        println!("{}", resp.body);
        return Ok(());
    }
    let parsed = json::parse(&resp.body).map_err(|e| format!("unparseable response: {e}"))?;
    if id.is_some() {
        print_retained(&parsed);
    } else {
        print_listing(&parsed);
    }
    Ok(())
}

fn resolve(addr: &str) -> Option<SocketAddr> {
    addr.to_socket_addrs().ok()?.next()
}

/// `{"retained":[…],"recent":[…]}` → a human summary.
fn print_listing(listing: &Json) {
    let retained = listing.get("retained").and_then(Json::as_arr).unwrap_or(&[]);
    println!("retained traces ({}):", retained.len());
    for entry in retained {
        let triggers: Vec<&str> = entry
            .get("triggers")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_str)
            .collect();
        if let Some(trace) = entry.get("trace") {
            let id = trace.get("trace_id").and_then(Json::as_str).unwrap_or("?");
            let dur = trace.get("duration_ns").and_then(Json::as_u64).unwrap_or(0);
            let spans = trace.get("spans").and_then(Json::as_arr).map_or(0, <[Json]>::len);
            println!(
                "  {id}  {:>10}  {spans:>3} spans  [{}]",
                fmt_ns(dur),
                triggers.join(",")
            );
        }
    }
    let recent: Vec<&str> = listing
        .get("recent")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_str)
        .collect();
    println!("recent trace ids in the ring ({}):", recent.len());
    for id in recent {
        println!("  {id}");
    }
    println!("\nfetch one with: emblookup-cli trace --addr <host:port> --id <hex>");
}

/// `{"triggers":[…],"trace":{…}}` → the span tree, indented by depth.
fn print_retained(entry: &Json) {
    let triggers: Vec<&str> = entry
        .get("triggers")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_str)
        .collect();
    let Some(trace) = entry.get("trace") else {
        println!("(no trace body)");
        return;
    };
    let id = trace.get("trace_id").and_then(Json::as_str).unwrap_or("?");
    let dur = trace.get("duration_ns").and_then(Json::as_u64).unwrap_or(0);
    println!("trace {id}  total {}  triggers [{}]", fmt_ns(dur), triggers.join(","));
    let spans = trace.get("spans").and_then(Json::as_arr).unwrap_or(&[]);
    // Spans arrive in creation order with parent ids, so one pass per
    // subtree suffices; trees are a handful of spans deep.
    print_children(spans, 0, 0);
}

fn print_children(spans: &[Json], parent: u64, depth: usize) {
    for span in spans {
        if span.get("parent").and_then(Json::as_u64) != Some(parent) {
            continue;
        }
        let id = span.get("id").and_then(Json::as_u64).unwrap_or(0);
        let name = span.get("name").and_then(Json::as_str).unwrap_or("?");
        let dur = span.get("dur_ns").and_then(Json::as_u64).unwrap_or(0);
        let self_ns = span.get("self_ns").and_then(Json::as_u64).unwrap_or(0);
        let thread = span.get("thread").and_then(Json::as_u64).unwrap_or(0);
        let annos = span.get("annotations").map_or(String::new(), fmt_annotations);
        println!(
            "{:indent$}{name}  dur {}  self {}  thread {thread}{annos}",
            "",
            fmt_ns(dur),
            fmt_ns(self_ns),
            indent = 2 + depth * 2,
        );
        print_children(spans, id, depth + 1);
    }
}

fn fmt_annotations(annotations: &Json) -> String {
    let Json::Obj(members) = annotations else {
        return String::new();
    };
    if members.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = members
        .iter()
        .map(|(k, v)| match v {
            Json::Str(s) => format!("{k}={s}"),
            Json::Num(n) => format!("{k}={n}"),
            other => format!("{k}={other:?}"),
        })
        .collect();
    format!("  {{{}}}", parts.join(" "))
}

/// Nanoseconds as a compact human duration.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}
