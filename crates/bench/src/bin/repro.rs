//! Regenerates every table and figure of the EmbLookup paper.
//!
//! ```text
//! cargo run --release -p emblookup-bench --bin repro              # all, full scale
//! cargo run --release -p emblookup-bench --bin repro -- --smoke   # quick pass
//! cargo run --release -p emblookup-bench --bin repro -- table5 fig4
//! ```
//!
//! Experiment names: `table1` … `table8`, `fig3`, `fig4`, `fig5`, `sizes`.
//!
//! Every run ends with the observability snapshot: a per-stage lookup
//! self-time table built from span trees, a per-stage metrics table
//! (training stage wall-times, index build, per-query lookup
//! percentiles) on stdout; nothing is written to disk. Set
//! `EMBLOOKUP_OBS=stderr` or `EMBLOOKUP_OBS_JSON=<path>` for live stage
//! events.

#![forbid(unsafe_code)]

use emblookup_bench::experiments as exp;
use emblookup_bench::harness::{Env, Scale};
use emblookup_kg::KgFlavor;
use emblookup_obs::{names, trace_id_from_index, Trace, TraceClock};
use std::time::Instant;

/// Queries used to populate the `lookup.latency.{el,el_nc}` histograms so
/// the closing report always has per-query percentiles, whichever
/// experiments were selected.
const LATENCY_PROBE_QUERIES: usize = 100;

fn probe_lookup_latency(env: &Env) {
    let labels: Vec<&str> = env
        .synth
        .kg
        .entities()
        .take(LATENCY_PROBE_QUERIES)
        .map(|e| e.label.as_str())
        .collect();
    for service in [&env.el, &env.el_nc] {
        for q in labels.iter().cycle().take(LATENCY_PROBE_QUERIES) {
            let _ = service.lookup_with_distances(q, 10);
        }
    }
}

/// Per-stage self-time table derived from span trees: every probe query
/// runs through the traced lookup path under its own trace, and each
/// span's *self* time (duration minus direct children) is aggregated by
/// span name. Unlike the stage histograms, which time stages in
/// isolation, this attributes every nanosecond of the request wall time
/// to exactly one stage — the rows sum to the root duration.
fn stage_self_time_report(env: &Env) -> String {
    let labels: Vec<&str> = env
        .synth
        .kg
        .entities()
        .take(LATENCY_PROBE_QUERIES)
        .map(|e| e.label.as_str())
        .collect();
    // (span name, total self ns, span count) in first-seen order, which
    // the span-id ordering of the snapshot makes the pipeline order.
    let mut agg: Vec<(&'static str, u64, u64)> = Vec::new();
    let mut total_ns: u64 = 0;
    for (i, q) in labels.iter().cycle().take(LATENCY_PROBE_QUERIES).enumerate() {
        let trace = Trace::start(trace_id_from_index(i as u64), TraceClock::real());
        let root = trace.root(names::SPAN_LOOKUP_REQUEST);
        let _ = env.el.lookup_with_distances_traced(q, 10, &root);
        root.finish();
        let data = trace.snapshot();
        total_ns += data.duration_ns();
        for (span, self_ns) in data.spans.iter().zip(data.self_times_ns()) {
            match agg.iter_mut().find(|(n, _, _)| *n == span.name) {
                Some(row) => {
                    row.1 += self_ns;
                    row.2 += 1;
                }
                None => agg.push((span.name, self_ns, 1)),
            }
        }
    }
    let fmt_ns = |ns: u64| {
        if ns >= 1_000_000_000 {
            format!("{:.2}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            format!("{:.2}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            format!("{:.2}us", ns as f64 / 1e3)
        } else {
            format!("{ns}ns")
        }
    };
    let mut rows: Vec<[String; 5]> = vec![[
        "span".into(),
        "spans".into(),
        "total self".into(),
        "mean self".into(),
        "share".into(),
    ]];
    for &(name, self_ns, count) in &agg {
        let share = if total_ns > 0 { 100.0 * self_ns as f64 / total_ns as f64 } else { 0.0 };
        rows.push([
            name.to_string(),
            count.to_string(),
            fmt_ns(self_ns),
            fmt_ns(self_ns / count.max(1)),
            format!("{share:.1}%"),
        ]);
    }
    let widths: Vec<usize> =
        (0..5).map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0)).collect();
    let mut out = String::from("## Lookup stage self-times (from span trees)\n\n");
    out.push_str(&format!(
        "{} traced queries against {}; self time = span duration minus direct children.\n\n",
        LATENCY_PROBE_QUERIES,
        env.el.index().backend_name(),
    ));
    for (i, r) in rows.iter().enumerate() {
        let line: Vec<String> =
            r.iter().enumerate().map(|(c, cell)| format!("{cell:<w$}", w = widths[c])).collect();
        out.push_str(line.join("  ").trim_end());
        out.push('\n');
        if i == 0 {
            let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
            out.push_str(&dashes.join("  "));
            out.push('\n');
        }
    }
    out
}

fn main() {
    emblookup_obs::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--smoke") {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let want = |name: &str| selected.is_empty() || selected.contains(&name);

    println!(
        "# EmbLookup reproduction report ({})\n",
        if scale == Scale::Smoke { "smoke scale" } else { "full scale" }
    );

    let needs_wd = ["table2", "table4", "table5", "table6", "table7", "fig4", "fig5", "sizes"]
        .iter()
        .any(|e| want(e));
    let needs_db = ["table3", "table4", "table6"].iter().any(|e| want(e));

    let t0 = Instant::now();
    let env_wd = needs_wd.then(|| {
        eprintln!("[setup] building ST-Wikidata environment…");
        Env::build(KgFlavor::Wikidata, scale)
    });
    let env_db = needs_db.then(|| {
        eprintln!("[setup] building ST-DBPedia environment…");
        Env::build(KgFlavor::DbPedia, scale)
    });
    eprintln!("[setup] done in {:.1?}", t0.elapsed());
    if let Some(env) = &env_wd {
        probe_lookup_latency(env);
    }

    let run = |name: &str, f: &mut dyn FnMut() -> String| {
        if !want(name) {
            return;
        }
        let start = Instant::now();
        let report = f();
        println!("{report}");
        eprintln!("[{name}] finished in {:.1?}", start.elapsed());
    };

    run("table1", &mut || exp::table1(scale));
    if let Some(env) = &env_wd {
        run("table2", &mut || exp::table2(env));
    }
    if let Some(env) = &env_db {
        run("table3", &mut || exp::table3(env));
    }
    if let (Some(wd), Some(db)) = (&env_wd, &env_db) {
        run("table4", &mut || exp::table4(wd, db, scale));
        run("table6", &mut || exp::table6(wd, db, scale));
    }
    if let Some(env) = &env_wd {
        run("table5", &mut || exp::table5(env, scale));
        run("table7", &mut || exp::table7(env));
    }
    run("table8", &mut || exp::table8(scale));
    run("ablation", &mut || exp::ablation(scale));
    run("fig3", &mut || exp::fig3(scale));
    if let Some(env) = &env_wd {
        run("fig4", &mut || exp::fig4(env));
        run("fig5", &mut || exp::fig5(env));
        run("sizes", &mut || exp::index_sizes(env));
    }
    if let Some(env) = &env_wd {
        println!("{}", stage_self_time_report(env));
    }
    let snap = emblookup_obs::global().snapshot();
    println!("## Pipeline metrics\n");
    println!("{}", snap.render_table());
    eprintln!("[repro] total {:.1?}", t0.elapsed());
}
