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
//! After the reports comes the claims table: each of the paper's claims
//! whose reports this run computed, and whether it holds. A failed claim
//! is a row of that table, not an error. Every run ends with the
//! observability snapshot: a per-stage lookup self-time table built from
//! span trees, a per-stage metrics table (training stage wall-times, index
//! build, per-query lookup percentiles) on stdout; nothing is written to
//! disk.

#![forbid(unsafe_code)]

use emblookup_bench::claims;
use emblookup_bench::harness::{Scale, Suite};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--smoke") { Scale::Smoke } else { Scale::Full };
    let selected: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(String::as_str).collect();
    if let Some(unknown) = selected.iter().find(|s| !Suite::experiments().any(|name| name == **s)) {
        let names: Vec<&str> = Suite::experiments().collect();
        eprintln!("repro: unknown experiment `{unknown}`; valid names: {}", names.join(", "));
        std::process::exit(2);
    }

    let scale_name = if scale == Scale::Smoke { "smoke scale" } else { "full scale" };
    println!("# EmbLookup reproduction report ({scale_name})\n");
    let t0 = Instant::now();
    let suite = Suite::new(scale);
    for name in Suite::experiments().filter(|name| selected.is_empty() || selected.contains(name)) {
        let start = Instant::now();
        if let Some(report) = suite.report(name) {
            println!("{report}");
        }
        eprintln!("[{name}] finished in {:.1?}", start.elapsed());
    }
    println!("{}", claims::table(&suite));
    if let Some(report) = suite.lookup_probe() {
        println!("{report}");
    }
    let snap = emblookup_obs::global().snapshot();
    println!("## Pipeline metrics\n");
    println!("{}", snap.render_table());
    eprintln!("[repro] total {:.1?}", t0.elapsed());
}
