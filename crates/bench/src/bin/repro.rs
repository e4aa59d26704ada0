//! Regenerates every table and figure of the EmbLookup paper.
//!
//! ```text
//! cargo run --release -p emblookup-bench --bin repro              # all, full scale
//! cargo run --release -p emblookup-bench --bin repro -- --smoke   # quick pass
//! cargo run --release -p emblookup-bench --bin repro -- table5 fig4
//! ```
//!
//! Experiment names: `table1` … `table8`, `ablation`, `fig3`, `fig4`,
//! `fig5`, `sizes`. Any other name exits with code 2 and lists them.
//!
//! Every run ends with the observability snapshot: a per-stage lookup
//! self-time table built from span trees, a per-stage metrics table
//! (training stage wall-times, index build, per-query lookup
//! percentiles) on stdout; nothing is written to disk.

#![forbid(unsafe_code)]

use emblookup_bench::experiments as exp;
use emblookup_bench::harness::{Env, Scale};
use emblookup_bench::report::Report;
use emblookup_kg::KgFlavor;
use std::cell::OnceCell;
use std::time::Instant;

/// Queries used to populate the `lookup.latency.{el,el_nc}` histograms so
/// the closing report always has per-query percentiles, whichever
/// experiments were selected.
const LATENCY_PROBE_QUERIES: usize = 100;

fn probe_lookup_latency(env: &Env) {
    let labels: Vec<&str> =
        env.synth.kg.entities().take(LATENCY_PROBE_QUERIES).map(|e| e.label.as_str()).collect();
    for service in [&env.el, &env.el_nc] {
        for q in labels.iter().cycle().take(LATENCY_PROBE_QUERIES) {
            let _ = service.lookup_with_distances(q, 10);
        }
    }
}

/// The two evaluation environments, each built when an experiment first
/// asks for it.
struct Envs {
    scale: Scale,
    wd: OnceCell<Env>,
    db: OnceCell<Env>,
}

impl Envs {
    fn build(&self, flavor: KgFlavor) -> Env {
        let start = Instant::now();
        let env = Env::build(flavor, self.scale);
        eprintln!("[setup] {flavor:?} environment built in {:.1?}", start.elapsed());
        env
    }

    /// ST-Wikidata; its first use also runs the latency probe.
    fn wd(&self) -> &Env {
        self.wd.get_or_init(|| {
            let env = self.build(KgFlavor::Wikidata);
            probe_lookup_latency(&env);
            env
        })
    }

    fn db(&self) -> &Env {
        self.db.get_or_init(|| self.build(KgFlavor::DbPedia))
    }
}

/// Builds one experiment's report, asking `Envs` for what it needs.
type Experiment = fn(&Envs) -> Report;

/// Every experiment by name, in report order.
const EXPERIMENTS: [(&str, Experiment); 13] = [
    ("table1", |e| exp::table1(e.scale)),
    ("table2", |e| exp::speedups(e.wd())),
    ("table3", |e| exp::speedups(e.db())),
    ("table4", |e| exp::table4(e.wd(), e.db(), e.scale)),
    ("table6", |e| exp::table6(e.wd(), e.db(), e.scale)),
    ("table5", |e| exp::table5(e.scale)),
    ("table7", |e| exp::table7(e.wd())),
    ("table8", |e| exp::table8(e.scale)),
    ("ablation", |e| exp::ablation(e.scale)),
    ("fig3", |e| exp::fig3(e.scale)),
    ("fig4", |e| exp::fig4(e.wd())),
    ("fig5", |e| exp::fig5(e.wd())),
    ("sizes", |e| exp::index_sizes(e.wd())),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--smoke") { Scale::Smoke } else { Scale::Full };
    let selected: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(String::as_str).collect();
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    if let Some(unknown) = selected.iter().find(|s| !names.contains(s)) {
        eprintln!(
            "repro: unknown experiment `{unknown}`; valid names: {}",
            names.join(", ")
        );
        std::process::exit(2);
    }

    println!(
        "# EmbLookup reproduction report ({})\n",
        if scale == Scale::Smoke {
            "smoke scale"
        } else {
            "full scale"
        }
    );
    let t0 = Instant::now();
    let envs = Envs {
        scale,
        wd: OnceCell::new(),
        db: OnceCell::new(),
    };
    for (name, run) in EXPERIMENTS {
        if !selected.is_empty() && !selected.contains(&name) {
            continue;
        }
        let start = Instant::now();
        println!("{}", run(&envs));
        eprintln!("[{name}] finished in {:.1?}", start.elapsed());
    }
    if let Some(env) = envs.wd.get() {
        println!("{}", exp::stage_self_times(env, LATENCY_PROBE_QUERIES));
    }
    let snap = emblookup_obs::global().snapshot();
    println!("## Pipeline metrics\n");
    println!("{}", snap.render_table());
    eprintln!("[repro] total {:.1?}", t0.elapsed());
}
