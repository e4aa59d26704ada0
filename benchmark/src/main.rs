//! The reference benchmark for EmbLookup.
//!
//! Two ways in, one set of workloads:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload
//!   and prints, as the last line of standard output, one JSON object
//!   with its end-to-end (`--trace 0`) or per-layer (`--trace 1`)
//!   metrics. This is what `BENCHMARK.json` names.
//! * without `--workload`, all four workloads run interleaved in rounds
//!   from one trained model, followed by the traced pass; every metric
//!   is printed by name with its unit, and `--sets 2` runs the untraced
//!   pass twice to tell noise from change.
//!
//! See `README.md` beside this package.

mod check;
mod client;
mod fixtures;
mod hostref;
mod json;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use check::Tally;
use hostref::HostRef;
use probes::Metric;
use report::WorkloadResult;
use std::io;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Kind, Prepared, Segment};

/// Every per-layer metric a traced run reports, with its unit.
/// `BENCHMARK.json` lists the same names; a test keeps the two in step.
pub const PER_LAYER: [(&str, &str); 80] = [
    ("text.onehot_us", "us"),
    ("embed.fasttext_us", "us"),
    ("tensor.conv_stack_us", "us"),
    ("tensor.mlp_us", "us"),
    ("core.embed_us", "us"),
    ("core.embed_p99_us", "us"),
    ("core.index_search_us", "us"),
    ("core.lookup_us", "us"),
    ("core.lookup_p99_us", "us"),
    ("core.lookup_glue_us", "us"),
    ("core.embed_batch_qps", "1/s"),
    ("core.search_batch_qps", "1/s"),
    ("core.bulk_call_ms", "ms"),
    ("core.shard_search_us", "us"),
    ("core.merge_topk_us", "us"),
    ("core.train_s", "s"),
    ("core.index_build_s", "s"),
    ("kg.generate_s", "s"),
    ("ann.flat.search_us", "us"),
    ("ann.flat.recall_at_10", "ratio"),
    ("ann.flat.visited_per_query", "count"),
    ("ann.flat.nbytes", "B"),
    ("ann.flat.build_s", "s"),
    ("ann.pq.search_us", "us"),
    ("ann.pq.recall_at_10", "ratio"),
    ("ann.pq.visited_per_query", "count"),
    ("ann.pq.nbytes", "B"),
    ("ann.pq.build_s", "s"),
    ("ann.ivf.search_us", "us"),
    ("ann.ivf.recall_at_10", "ratio"),
    ("ann.ivf.visited_per_query", "count"),
    ("ann.ivf.nbytes", "B"),
    ("ann.ivf.build_s", "s"),
    ("ann.hnsw.search_us", "us"),
    ("ann.hnsw.recall_at_10", "ratio"),
    ("ann.hnsw.visited_per_query", "count"),
    ("ann.hnsw.nbytes", "B"),
    ("ann.hnsw.build_s", "s"),
    ("ann.hnswpq.search_us", "us"),
    ("ann.hnswpq.recall_at_10", "ratio"),
    ("ann.hnswpq.visited_per_query", "count"),
    ("ann.hnswpq.nbytes", "B"),
    ("ann.hnswpq.build_s", "s"),
    ("ann.query_embed_us", "us"),
    ("ann.kernel.sq_l2_block_ns_per_row", "ns"),
    ("ann.kernel.adc_block_ns_per_code", "ns"),
    ("pool.dispatch_us", "us"),
    ("pool.scatter_us", "us"),
    ("pool.tasks_per_bulk_call", "count"),
    ("pool.steals_per_bulk_call", "count"),
    ("serve.healthz_rtt_us", "us"),
    ("serve.lookup_rtt_1conn_us", "us"),
    ("serve.lookup_p50_us", "us"),
    ("serve.lookup_p99_us", "us"),
    ("serve.bulk32_rtt_ms", "ms"),
    ("serve.handoff_us", "us"),
    ("serve.json_parse_us.lookup", "us"),
    ("serve.json_parse_us.bulk32", "us"),
    ("serve.client_request_us", "us"),
    ("serve.client_write_us", "us"),
    ("serve.client_wait_us", "us"),
    ("serve.client_read_us", "us"),
    ("serve.stage.admit_us", "us"),
    ("serve.stage.decode_us", "us"),
    ("serve.stage.encode_us", "us"),
    ("serve.stage.search_us", "us"),
    ("serve.stage.shard_us", "us"),
    ("serve.stage.rank_us", "us"),
    ("serve.shed", "count"),
    ("serve.deadline_504", "count"),
    ("serve.degraded", "count"),
    ("obs.hist_record_ns", "ns"),
    ("obs.traced_lookup_overhead_us", "us"),
    ("baselines.levenshtein.lookup_us", "us"),
    ("baselines.qgram.lookup_us", "us"),
    ("baselines.elastic.lookup_us", "us"),
    ("baselines.speedup_vs_elastic", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.host_calib_ms", "ms"),
    ("bench.host_speed", "ratio"),
];

/// Queries of the untimed quality pass.
const QUALITY_QUERIES: usize = 5000;
/// Queries timed against each string baseline.
const BASELINE_QUERIES: usize = 200;
/// A traced run spends at most this long on the workload's own traced
/// pass, whatever `--seconds` says: its other probes already take most
/// of a minute, and every run must fit the driver's time cap.
const TRACED_PASS_MAX_S: f64 = 10.0;

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    smoke: bool,
}

const USAGE: &str = "usage: run.sh [--seed N] [--sets 1|2] [--smoke]
       run.sh --workload single_small|single_large_flat|bulk_large|served_mixed \\
              --seed N --seconds S --trace 0|1";

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: 15.0,
            trace: false,
            sets: 1,
            smoke: false,
        };
        while let Some(flag) = argv.next() {
            if flag == "--smoke" {
                args.smoke = true;
                continue;
            }
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => args.workload = Some(Kind::parse(&value).ok_or_else(bad)?),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    args.seconds = value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?
                }
                "--trace" => {
                    args.trace = matches!(value.as_str(), "0" | "1")
                        .then_some(value == "1")
                        .ok_or_else(bad)?
                }
                "--sets" => {
                    args.sets = value
                        .parse()
                        .ok()
                        .filter(|n| (1..=2).contains(n))
                        .ok_or_else(bad)?
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if args.smoke && args.sets > 1 {
            return Err("--smoke runs one set".to_string());
        }
        Ok(args)
    }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// The environment every result is qualified by.
fn environment(seed: u64) -> Vec<(String, String)> {
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".to_string());
    vec![
        ("seed".to_string(), seed.to_string()),
        ("EMBLOOKUP_THREADS".to_string(), var("EMBLOOKUP_THREADS")),
        ("EMBLOOKUP_KERNEL".to_string(), var("EMBLOOKUP_KERNEL")),
        (
            "kernels::active()".to_string(),
            emblookup_ann::kernels::active().to_string(),
        ),
        (
            "pool threads".to_string(),
            emblookup_pool::Pool::global().threads().to_string(),
        ),
        (
            "available_parallelism".to_string(),
            std::thread::available_parallelism().map_or("unknown".to_string(), |n| n.to_string()),
        ),
        ("rustc".to_string(), var("BENCH_RUSTC")),
    ]
}

/// A served run only counts if the server never shed, missed a deadline
/// or stepped down a rung.
fn served_clean(p: &Prepared<'_>) -> bool {
    let counters = probes::served_counters(p);
    for (name, value) in counters {
        if value != 0 {
            eprintln!("{}: {name} = {value}, must be 0", p.kind.name());
        }
    }
    counters.iter().all(|(_, v)| *v == 0)
}

fn write_out(name: &str, text: &str) {
    let dir = std::path::Path::new("benchmark/out");
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(name), text));
    match written {
        Ok(()) => eprintln!("wrote benchmark/out/{name}"),
        Err(e) => eprintln!("could not write benchmark/out/{name}: {e}"),
    }
}

/// One workload, one result line: what `BENCHMARK.json` runs.
fn run_one(kind: Kind, args: &Args) -> io::Result<()> {
    let host = HostRef::default();
    let fx = fixtures::build(args.seed, &host);
    let (metrics, tally, clean) = if args.trace {
        let mut all = [workloads::prepare(kind, &fx, &host)?];
        workloads::complete(&mut all)?;
        let [mut p] = all;
        let shared = probes::shared(&fx, BASELINE_QUERIES);
        let own = secs(args.seconds.min(TRACED_PASS_MAX_S));
        let report = probes::run(&mut p, own, secs(1.5), &shared, &host)?;
        write_out(
            "trace.json",
            &json::array([spans::trace_json(kind.name(), &report.spans)]),
        );
        let clean = served_clean(&p);
        let mut ordered = Vec::with_capacity(PER_LAYER.len());
        for (name, _) in PER_LAYER {
            let found = report.metrics.iter().find(|m| m.name == name);
            ordered.push(
                found
                    .cloned()
                    .ok_or_else(|| io::Error::other(format!("probe {name} did not run")))?,
            );
        }
        (ordered, report.tally, clean)
    } else {
        let mut p = workloads::prepare(kind, &fx, &host)?;
        eprintln!(
            "set-up as measured: {:.4} s (graphs + training {:.4} s at host speed {:.3}, build {:.4} s at {:.3})",
            p.setup_raw_s(),
            fx.kg_generate_s + fx.train_s,
            fx.host_speed,
            p.build_s,
            p.build_host_speed
        );
        p.segment(Duration::ZERO, secs(1.0), None)?;
        let slices = p.measure(secs(args.seconds), &host)?;
        let result = report::fold(&p, &slices, p.quality(QUALITY_QUERIES));
        for def in &report::END_TO_END {
            let s = result.summary(def.name);
            eprintln!(
                "{:<24} {:>12.4} {:<5} [q1 {:.4} .. q3 {:.4}] over {} slice(s)",
                def.name, s.median, def.unit, s.q1, s.q3, s.n
            );
        }
        eprintln!(
            "as measured: setup_s {:.4} op_p50_us {:.4} qps {:.4}; host speed {:.4} [q1 {:.4} .. q3 {:.4}]",
            result.setup_raw_s,
            result.op_p50_us.median,
            result.qps.median,
            result.host_speed.median,
            result.host_speed.q1,
            result.host_speed.q3
        );
        let clean = served_clean(&p);
        (result.end_to_end(), result.tally, clean)
    };
    eprintln!(
        "{}: attempted {} / ok {} / failed {} (compared with oracle: {})",
        kind.name(),
        tally.attempted,
        tally.ok(),
        tally.failed,
        tally.compared
    );
    let correct = clean && tally.failed == 0 && tally.attempted > 0;
    println!("{}", report::result_line(correct, tally, &metrics));
    Ok(())
}

/// How long each part of the interleaved run takes.
struct Shape {
    rounds: usize,
    warm_up: f64,
    lead_in: f64,
    segment: f64,
    traced: f64,
    probe: f64,
    quality: usize,
    baseline_queries: usize,
}

const FULL: Shape = Shape {
    rounds: 15,
    warm_up: 2.0,
    lead_in: 0.2,
    segment: 2.0,
    traced: 10.0,
    probe: 1.5,
    quality: QUALITY_QUERIES,
    baseline_queries: BASELINE_QUERIES,
};
const SMOKE: Shape = Shape {
    rounds: 1,
    warm_up: 0.3,
    lead_in: 0.1,
    segment: 0.3,
    traced: 1.0,
    probe: 0.3,
    quality: 500,
    baseline_queries: 20,
};

/// All four workloads from one trained model: untraced rounds, quality
/// pass, traced pass, report.
fn run_all(args: &Args) -> io::Result<bool> {
    let shape = if args.smoke { SMOKE } else { FULL };
    let env = environment(args.seed);
    report::print_environment(&env);
    let host = HostRef::default();
    let fx = fixtures::build(args.seed, &host);
    eprintln!("trained in {:.2} s; setting up four workloads", fx.train_s);
    let mut prepared = Vec::new();
    for kind in Kind::ALL {
        prepared.push(workloads::prepare(kind, &fx, &host)?);
    }
    workloads::complete(&mut prepared)?;
    for p in &mut prepared {
        p.segment(Duration::ZERO, secs(shape.warm_up), None)?;
    }
    // Rounds: one segment of each workload (of each set) in turn, cut
    // into host-speed-sampled slices like a driver run, so that what the
    // adjustment leaves of host drift is spread evenly over all of them
    // and every workload's measured seconds span the whole run.
    let mut segments: Vec<Vec<Vec<Segment>>> = (0..args.sets)
        .map(|_| Kind::ALL.iter().map(|_| Vec::new()).collect())
        .collect();
    for round in 0..shape.rounds {
        eprintln!("round {}/{}", round + 1, shape.rounds);
        for set in segments.iter_mut() {
            for (p, into) in prepared.iter_mut().zip(set.iter_mut()) {
                p.segment(Duration::ZERO, secs(shape.lead_in), None)?;
                into.extend(p.measure(secs(shape.segment), &host)?);
            }
        }
    }
    let qualities: Vec<_> = prepared.iter().map(|p| p.quality(shape.quality)).collect();
    let sets: Vec<Vec<WorkloadResult>> = segments
        .iter()
        .map(|set| {
            prepared
                .iter()
                .zip(set)
                .zip(&qualities)
                .map(|((p, segs), q)| report::fold(p, segs, *q))
                .collect()
        })
        .collect();

    let mut ok = true;
    for (i, results) in sets.iter().enumerate() {
        let title = if args.sets > 1 {
            format!("set {}", ["A", "B"][i])
        } else {
            "tracing off".to_string()
        };
        report::print_end_to_end(&title, results);
        report::print_tallies(
            &title,
            &results
                .iter()
                .map(|r| (r.kind, r.tally))
                .collect::<Vec<_>>(),
        );
        ok &= results
            .iter()
            .all(|r| r.tally.failed == 0 && r.tally.attempted > 0);
    }

    eprintln!("traced pass");
    let mut layers: Vec<(Kind, Vec<Metric>)> = Vec::new();
    let mut traces = Vec::new();
    let mut traced_tallies: Vec<(Kind, Tally)> = Vec::new();
    let shared = probes::shared(&fx, shape.baseline_queries);
    for p in &mut prepared {
        let report = probes::run(p, secs(shape.traced), secs(shape.probe), &shared, &host)?;
        traces.push(spans::trace_json(p.kind.name(), &report.spans));
        println!("## Spans of {} (traced pass)", p.kind.name());
        println!(
            "{:<22} {:>9} {:>12} {:>12} {:>14}",
            "span", "count", "p50_us", "self_p50_us", "self_total_ms"
        );
        for (name, stat) in spans::layer_table(&report.spans) {
            println!(
                "{:<22} {:>9} {:>12.2} {:>12.2} {:>14.1}",
                name, stat.count, stat.p50_us, stat.self_p50_us, stat.self_total_ms
            );
        }
        println!();
        ok &= report.tally.failed == 0;
        traced_tallies.push((p.kind, report.tally));
        layers.push((p.kind, report.metrics));
        ok &= served_clean(p);
    }
    report::print_tallies("traced pass", &traced_tallies);
    report::print_layers(&layers);
    report::print_ledger(&layers);
    if let [a, b] = &sets[..] {
        ok &= report::compare_sets(a, b);
    }
    write_out("trace.json", &json::array(traces));
    write_out("results.json", &report::results_json(&env, &sets, &layers));
    println!(
        "{}",
        if ok {
            "benchmark: every answer checked, no failures"
        } else {
            "benchmark: FAILED (see above)"
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Pinned before the first pool or kernel use: the harness assumes a
    // pool of two, whatever the host's core count says.
    std::env::set_var("EMBLOOKUP_THREADS", workloads::THREADS.to_string());
    if std::env::var_os("EMBLOOKUP_KERNEL").is_none() {
        std::env::set_var("EMBLOOKUP_KERNEL", "auto");
    }
    let outcome = match args.workload {
        // a wrong answer is reported in the result line, not by the exit code
        Some(kind) => run_one(kind, &args).map(|()| true),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark aborted: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse("--workload served_mixed --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Kind::ServedMixed), 42, 10.0, true)
        );
        let a = parse("--seed 7 --sets 2").unwrap();
        assert!(a.workload.is_none() && a.sets == 2 && !a.trace && !a.smoke);
        assert!(parse("--smoke").unwrap().smoke);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--sets 3",
            "--smoke --sets 2",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(parse(bad).is_err(), "{bad} was accepted");
        }
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for (name, unit) in PER_LAYER {
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }
}
