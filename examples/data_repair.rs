//! Data repair (the paper's Katara-style task): impute missing table cells
//! from the knowledge graph, driving candidate generation with EmbLookup.
//!
//! ```text
//! cargo run --release --example data_repair
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, reason = "an example: a panic is its error report")]

use emblookup::prelude::*;
use emblookup::semtab::{run_data_repair, with_missing, with_noise, KataraSystem};

fn main() {
    let synth = generate(SynthKgConfig::small(11));
    let clean = generate_dataset(&synth, &DatasetConfig::st_dbpedia(11));
    // blank out 15% of the entity cells, then additionally misspell 20%
    // of the surviving ones — the hard setting for a lookup service
    let broken = with_noise(&with_missing(&clean, 0.15, 11), 0.20, 11);

    println!("training EmbLookup…");
    let service = EmbLookup::train_on(&synth.kg, EmbLookupConfig::fast(11));

    let report = run_data_repair(&synth.kg, &broken, &KataraSystem, &service, 20);
    println!(
        "repaired {} missing cells: precision {:.3}, recall {:.3}, F1 {:.3}",
        report.items,
        report.metrics.precision(),
        report.metrics.recall(),
        report.f1()
    );
    println!(
        "lookup time {:?}, repair post-processing {:?}",
        report.lookup_time, report.post_time
    );

    // show a few concrete repairs
    let katara = KataraSystem;
    let table = &broken.tables[0];
    let result = katara.repair(&synth.kg, table, &service, 20);
    println!("\nexample repairs in table 0:");
    let mut shown = 0;
    for r in 0..table.num_rows() {
        for c in 0..table.num_cols() {
            let cell = table.cell(r, c);
            if !cell.missing {
                continue;
            }
            if let Some(&imputed) = result.imputations.get(&(r, c)) {
                let truth = cell.truth.unwrap();
                println!(
                    "  ({r},{c}) imputed {:<24} truth {:<24} {}",
                    synth.kg.label(imputed),
                    synth.kg.label(truth),
                    if imputed == truth { "✓" } else { "✗" }
                );
                shown += 1;
                if shown >= 8 {
                    return;
                }
            }
        }
    }
}
