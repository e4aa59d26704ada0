//! Metric definitions, the result line the driver reads, and the tables
//! a person reads.

use crate::check::Tally;
use crate::json::{self, Object};
use crate::probes::Metric;
use crate::stats::{median_of_segments, summarize, Summary};
use crate::workloads::{Kind, Prepared, Quality, Segment, BULK_BATCH};

/// An end-to-end metric: what a user of the system would see.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; also the agreement bound
    /// for two sets of runs of the same code.
    pub bound: f64,
    pub what: &'static str,
}

/// The end-to-end metrics, reported by every workload. `BENCHMARK.json`
/// repeats this table; a test keeps the two in step.
pub const END_TO_END: [MetricDef; 6] = [
    MetricDef {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        what: "graph generation + training + this workload's index build (and server start), host-adjusted (x host speed)",
    },
    MetricDef {
        name: "op_p50_adj_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
        what: "median latency of the workload's operation as its caller sees it, host-adjusted (x host speed)",
    },
    MetricDef {
        name: "qps_adj",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
        what: "queries answered and verified per measured second, host-adjusted (/ host speed)",
    },
    MetricDef {
        name: "hit_at_10",
        unit: "ratio",
        higher_is_better: true,
        bound: 0.05,
        what: "share of queries whose gold entity is in the top 10",
    },
    MetricDef {
        name: "recall_at_10",
        unit: "ratio",
        higher_is_better: true,
        bound: 0.03,
        what: "overlap of the top 10 with the exact flat index on the same embedded query",
    },
    MetricDef {
        name: "index_bytes_per_entity",
        unit: "B",
        higher_is_better: false,
        bound: 0.02,
        what: "index().nbytes() / len(), summed over shards when served",
    },
];

/// Everything one workload's untraced pass produced.
pub struct WorkloadResult {
    pub kind: Kind,
    /// Host-adjusted, like the two below; `setup_raw_s` is as measured.
    pub setup_s: f64,
    pub setup_raw_s: f64,
    /// Host-adjusted: each slice's value times (a rate: divided by) the
    /// host speed measured around it.
    pub op_p50_adj_us: Summary,
    pub qps_adj: Summary,
    /// As measured, beside the adjusted ones.
    pub op_p50_us: Summary,
    pub op_p99_us: Summary,
    /// `served_mixed` only: the bulk requests of the mix.
    pub bulk_p50_ms: Summary,
    pub qps: Summary,
    pub quality: Quality,
    pub index_bytes_per_entity: f64,
    /// Host speed of the slices (1.0 = the quiet reference box).
    pub host_speed: Summary,
    pub operations: usize,
    pub tally: Tally,
}

fn single(value: f64) -> Summary {
    Summary {
        median: value,
        q1: value,
        q3: value,
        n: 1,
    }
}

/// Folds the measured segments of one workload into its metrics: each
/// latency is the median over segments of the per-segment percentile,
/// `qps` the median of per-segment rates; the adjusted ones scale every
/// segment by its own host speed first (a segment nobody sampled the
/// host speed around counts as measured at speed 1).
pub fn fold(p: &Prepared<'_>, segments: &[Segment], quality: Quality) -> WorkloadResult {
    let speed = |s: &Segment| {
        if s.host_speed > 0.0 {
            s.host_speed
        } else {
            1.0
        }
    };
    let ops = |scale: f64| segments.iter().map(move |s| (&s.op_ns[..], scale));
    let collect =
        |f: &dyn Fn(&Segment) -> f64| summarize(&segments.iter().map(f).collect::<Vec<_>>());
    let mut tally = Tally::default();
    for s in segments {
        tally.add(s.tally);
    }
    WorkloadResult {
        kind: p.kind,
        setup_s: p.setup_s(),
        setup_raw_s: p.setup_raw_s(),
        op_p50_adj_us: median_of_segments(
            segments.iter().map(|s| (&s.op_ns[..], 1e-3 * speed(s))),
            50.0,
        ),
        qps_adj: collect(&|s| s.qps() / speed(s)),
        op_p50_us: median_of_segments(ops(1e-3), 50.0),
        op_p99_us: median_of_segments(ops(1e-3), 99.0),
        bulk_p50_ms: median_of_segments(segments.iter().map(|s| (&s.bulk_ns[..], 1e-6)), 50.0),
        qps: collect(&Segment::qps),
        quality,
        index_bytes_per_entity: p.index_bytes_per_entity(),
        host_speed: collect(&speed),
        operations: segments
            .iter()
            .map(|s| s.op_ns.len() + s.bulk_ns.len())
            .sum(),
        tally,
    }
}

impl WorkloadResult {
    /// The end-to-end metric `name` with its spread across segments
    /// (metrics measured once per run have none).
    pub fn summary(&self, name: &str) -> Summary {
        match name {
            "setup_s" => single(self.setup_s),
            "op_p50_adj_us" => self.op_p50_adj_us,
            "qps_adj" => self.qps_adj,
            "hit_at_10" => single(self.quality.hit_at_10),
            "recall_at_10" => single(self.quality.recall_at_10),
            "index_bytes_per_entity" => single(self.index_bytes_per_entity),
            _ => single(f64::NAN),
        }
    }

    pub fn end_to_end(&self) -> Vec<Metric> {
        END_TO_END
            .iter()
            .map(|m| Metric {
                name: m.name.to_string(),
                value: self.summary(m.name).median,
                unit: m.unit,
            })
            .collect()
    }
}

/// The one line the driver parses: the last line of standard output.
pub fn result_line(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let mut fields = Object::new();
    for m in metrics {
        fields = fields.raw(
            &m.name,
            &Object::new()
                .num("value", m.value)
                .str("unit", m.unit)
                .finish(),
        );
    }
    Object::new()
        .bool("correct", correct)
        .int("attempted", tally.attempted.max(1))
        .int("failed", tally.failed)
        .raw("metrics", &fields.finish())
        .finish()
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better), in the metric's own direction.
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if def.higher_is_better {
        -change
    } else {
        change
    }
}

pub fn print_environment(env: &[(String, String)]) {
    println!("## Environment");
    for (k, v) in env {
        println!("{k:<22} {v}");
    }
    println!();
}

pub fn print_end_to_end(title: &str, results: &[WorkloadResult]) {
    println!("## End-to-end metrics — {title} (median [q1 .. q3] over n segments)");
    for def in &END_TO_END {
        let direction = if def.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        println!(
            "{:<24} {} is better, bound {:.0} %: {}",
            def.name,
            direction,
            def.bound * 100.0,
            def.what
        );
    }
    println!(
        "{:<24} {:<6} {:<18} {:>14} {:>14} {:>14} {:>4} {:>8}",
        "metric", "unit", "workload", "median", "q1", "q3", "n", "spread"
    );
    for def in &END_TO_END {
        for r in results {
            let s = r.summary(def.name);
            println!(
                "{:<24} {:<6} {:<18} {:>14.4} {:>14.4} {:>14.4} {:>4} {:>7.1}%",
                def.name,
                def.unit,
                r.kind.name(),
                s.median,
                s.q1,
                s.q3,
                s.n,
                s.rel_spread() * 100.0
            );
        }
    }
    println!();
    println!("## Beside them (not bounded)");
    for r in results {
        println!(
            "{:<18} op = {:<48} host speed {:.3} [{:.3} .. {:.3}]",
            r.kind.name(),
            r.kind.operation(),
            r.host_speed.median,
            r.host_speed.q1,
            r.host_speed.q3
        );
        println!(
            "{:<18} as measured: setup_s {:.3}  op_p50_us {:.2} (spread {:.1} %)  op_p99_us {:.2}  qps {:.1} (spread {:.1} %)",
            "",
            r.setup_raw_s,
            r.op_p50_us.median,
            r.op_p50_us.rel_spread() * 100.0,
            r.op_p99_us.median,
            r.qps.median,
            r.qps.rel_spread() * 100.0
        );
        if r.bulk_p50_ms.n > 0 {
            println!(
                "{:<18} bulk request (32 queries) p50 {:.3} ms over {} segments",
                "", r.bulk_p50_ms.median, r.bulk_p50_ms.n
            );
        }
    }
    println!();
}

pub fn print_tallies(phase: &str, tallies: &[(Kind, Tally)]) {
    println!("## Checker — {phase}");
    println!(
        "{:<18} {:>10} {:>10} {:>8} {:>22}",
        "workload", "attempted", "ok", "failed", "compared with oracle"
    );
    for (kind, t) in tallies {
        println!(
            "{:<18} {:>10} {:>10} {:>8} {:>22}",
            kind.name(),
            t.attempted,
            t.ok(),
            t.failed,
            t.compared
        );
    }
    println!();
}

/// The per-layer table: one row per metric, one column per workload.
pub fn print_layers(layers: &[(Kind, Vec<Metric>)]) {
    println!("## Per-layer metrics (traced pass; p50 unless the name says otherwise)");
    print!("{:<36} {:<6}", "metric", "unit");
    for (kind, _) in layers {
        print!(" {:>18}", kind.name());
    }
    println!();
    let Some((_, first)) = layers.first() else {
        return;
    };
    for m in first {
        print!("{:<36} {:<6}", m.name, m.unit);
        for (_, metrics) in layers {
            let v = metrics
                .iter()
                .find(|x| x.name == m.name)
                .map_or(f64::NAN, |x| x.value);
            print!(" {:>18.4}", v);
        }
        println!();
    }
    println!();
}

/// The ledger of a served request and the shares the workload table
/// states, recomputed from the traced pass so that a reader can see
/// whether they still hold.
pub fn print_ledger(layers: &[(Kind, Vec<Metric>)]) {
    let get = |kind: Kind, name: &str| {
        layers
            .iter()
            .find(|(k, _)| *k == kind)
            .and_then(|(_, m)| m.iter().find(|x| x.name == name))
            .map_or(f64::NAN, |x| x.value)
    };
    let served = |name: &str| get(Kind::ServedMixed, name);
    println!("## Where a served request's time goes (served_mixed, traced pass)");
    let parts = served("serve.client_write_us")
        + served("serve.client_wait_us")
        + served("serve.client_read_us");
    let request = served("serve.client_request_us");
    println!(
        "client write {:.1} + wait {:.1} + read {:.1} = {:.1} us of a {:.1} us client-observed request ({:+.1} %)",
        served("serve.client_write_us"),
        served("serve.client_wait_us"),
        served("serve.client_read_us"),
        parts,
        request,
        (parts - request) / request * 100.0
    );
    println!(
        "1-connection /lookup {:.1} us = healthz round trip {:.1} + embed {:.1} + sharded search {:.1} + hand-off {:.1}",
        served("serve.lookup_rtt_1conn_us"),
        served("serve.healthz_rtt_us"),
        served("core.embed_us"),
        served("core.shard_search_us"),
        served("serve.handoff_us")
    );
    println!("## Shares the workload table states");
    for kind in [Kind::SingleSmall, Kind::SingleLargeFlat] {
        println!(
            "{:<18} core.embed_us is {:.0} % of core.lookup_us (stated: >= 70 % on single_small, <= 15 % on single_large_flat)",
            kind.name(),
            get(kind, "core.embed_us") / get(kind, "core.lookup_us") * 100.0
        );
    }
    let batch = BULK_BATCH as f64 / get(Kind::BulkLarge, "core.bulk_call_ms") * 1e3;
    let single = 1e6 / get(Kind::BulkLarge, "core.lookup_us");
    println!(
        "bulk_large         batch path {:.0} q/s at 2 threads against {:.0} q/s for single HnswPq lookups ({})",
        batch,
        single,
        if batch > single { "the batch path is ahead, as stated" } else { "FINDING: the batch path is not ahead" }
    );
    println!();
}

/// Prints, per metric × workload, how far set B's median is from set
/// A's against the metric's bound. Returns whether every pair agrees.
pub fn compare_sets(a: &[WorkloadResult], b: &[WorkloadResult]) -> bool {
    println!("## Two sets of runs of the same code (|B − A| / A against the bound)");
    println!(
        "{:<24} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "metric", "workload", "set A", "set B", "diff", "bound"
    );
    let mut agree = true;
    for def in &END_TO_END {
        for (ra, rb) in a.iter().zip(b) {
            let (va, vb) = (ra.summary(def.name).median, rb.summary(def.name).median);
            let diff = worsening(def, va, vb).abs();
            let ok = diff <= def.bound;
            agree &= ok;
            println!(
                "{:<24} {:<18} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%  {}",
                def.name,
                ra.kind.name(),
                va,
                vb,
                diff * 100.0,
                def.bound * 100.0,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
    }
    println!();
    agree
}

fn summary_json(s: Summary) -> String {
    Object::new()
        .num("median", s.median)
        .num("q1", s.q1)
        .num("q3", s.q3)
        .int("n", s.n as u64)
        .finish()
}

/// `benchmark/out/results.json`: everything printed, as data.
pub fn results_json(
    env: &[(String, String)],
    sets: &[Vec<WorkloadResult>],
    layers: &[(Kind, Vec<Metric>)],
) -> String {
    let mut environment = Object::new();
    for (k, v) in env {
        environment = environment.str(k, v);
    }
    let sets_json = sets.iter().map(|results| {
        let mut per_workload = Object::new();
        for r in results {
            let mut metrics = Object::new();
            for def in &END_TO_END {
                metrics = metrics.raw(def.name, &summary_json(r.summary(def.name)));
            }
            metrics = metrics
                .raw("setup_raw_s", &summary_json(single(r.setup_raw_s)))
                .raw("op_p50_us", &summary_json(r.op_p50_us))
                .raw("op_p99_us", &summary_json(r.op_p99_us))
                .raw("qps", &summary_json(r.qps))
                .raw("host_speed", &summary_json(r.host_speed));
            if r.bulk_p50_ms.n > 0 {
                metrics = metrics.raw("bulk_p50_ms", &summary_json(r.bulk_p50_ms));
            }
            let entry = Object::new()
                .raw("end_to_end", &metrics.finish())
                .int("operations", r.operations as u64)
                .int("attempted", r.tally.attempted)
                .int("failed", r.tally.failed)
                .int("compared_with_oracle", r.tally.compared)
                .int("quality_queries", r.quality.n as u64)
                .finish();
            per_workload = per_workload.raw(r.kind.name(), &entry);
        }
        per_workload.finish()
    });
    let mut per_layer = Object::new();
    for (kind, metrics) in layers {
        let mut m = Object::new();
        for x in metrics {
            m = m.raw(
                &x.name,
                &Object::new()
                    .num("value", x.value)
                    .str("unit", x.unit)
                    .finish(),
            );
        }
        per_layer = per_layer.raw(kind.name(), &m.finish());
    }
    Object::new()
        .raw("environment", &environment.finish())
        .raw("sets", &json::array(sets_json))
        .raw("per_layer", &per_layer.finish())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Val;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics = vec![
            Metric {
                name: "op_p50_adj_us".into(),
                value: 28.125,
                unit: "us",
            },
            Metric {
                name: "setup_s".into(),
                value: 3.5,
                unit: "s",
            },
        ];
        let line = result_line(
            true,
            Tally {
                attempted: 1000,
                failed: 0,
                compared: 7,
            },
            &metrics,
        );
        let v = json::parse(&line).expect("one JSON object");
        let Val::Obj(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("op_p50_adj_us").unwrap();
        assert_eq!(m.get("value").and_then(Val::as_f64), Some(28.125));
        assert_eq!(m.get("unit").and_then(Val::as_str), Some("us"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let latency = &END_TO_END[1];
        let qps = &END_TO_END[2];
        assert!(!latency.higher_is_better && qps.higher_is_better);
        assert!((worsening(latency, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(latency, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(qps, 1000.0, 900.0) - 0.10).abs() < 1e-12);
        assert!((worsening(qps, 1000.0, 1100.0) + 0.10).abs() < 1e-12);
    }

    /// `BENCHMARK.json` is written by hand; this keeps it in step with
    /// the harness (skipped where the file is not beside the package).
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Val::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Val::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), Kind::ALL.map(|k| k.name().to_string()));
        let e2e = doc.get("end_to_end").and_then(Val::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (def, entry) in END_TO_END.iter().zip(e2e) {
            assert_eq!(entry.get("name").and_then(Val::as_str), Some(def.name));
            assert_eq!(entry.get("unit").and_then(Val::as_str), Some(def.unit));
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                entry.get("better").and_then(Val::as_str),
                Some(better),
                "{}",
                def.name
            );
            assert_eq!(
                entry.get("bound").and_then(Val::as_f64),
                Some(def.bound),
                "{}",
                def.name
            );
        }
        let mut listed = names("per_layer");
        let mut emitted: Vec<String> = crate::PER_LAYER
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        listed.sort();
        emitted.sort();
        assert_eq!(listed, emitted);
        for entry in doc.get("per_layer").and_then(Val::as_arr).unwrap() {
            let name = entry.get("name").and_then(Val::as_str).unwrap();
            let unit = crate::PER_LAYER.iter().find(|(n, _)| *n == name).unwrap().1;
            assert_eq!(
                entry.get("unit").and_then(Val::as_str),
                Some(unit),
                "{name}"
            );
        }
    }
}
