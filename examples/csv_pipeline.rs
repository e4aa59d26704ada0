//! CSV interop: export a benchmark in SemTab layout, re-import it, and
//! annotate the re-imported tables — the adoption path for running the
//! pipelines on your own tabular corpus.
//!
//! ```text
//! cargo run --release --example csv_pipeline
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, reason = "an example: a panic is its error report")]

use emblookup::prelude::*;
use emblookup::semtab::{
    apply_cea_targets, cea_targets_to_csv, table_from_csv, table_to_csv, BbwSystem, Dataset,
};

fn main() {
    let synth = generate(SynthKgConfig::small(77));
    let dataset = generate_dataset(&synth, &DatasetConfig::tiny(77));

    // 1. export: one CSV per table plus the shared CEA target file
    let csvs: Vec<String> = dataset.tables.iter().map(table_to_csv).collect();
    let targets = cea_targets_to_csv(&dataset);
    println!(
        "exported {} tables ({} bytes of CSV) and {} target rows",
        csvs.len(),
        csvs.iter().map(String::len).sum::<usize>(),
        targets.lines().count()
    );

    // 2. re-import and re-attach ground truth
    let mut tables = Vec::new();
    for (i, csv) in csvs.iter().enumerate() {
        let mut table = table_from_csv(dataset.tables[i].id, csv).expect("re-import");
        apply_cea_targets(&mut table, &targets).expect("targets");
        tables.push(table);
    }
    let reimported = Dataset { name: "reimported".into(), tables };
    assert_eq!(reimported.num_entity_cells(), dataset.num_entity_cells());

    // 3. annotate the round-tripped dataset with EmbLookup
    println!("training EmbLookup…");
    let service = EmbLookup::train_on(&synth.kg, EmbLookupConfig::fast(77));
    let (report, _) = run_cea_cta(&synth.kg, &reimported, &BbwSystem, &service, 20);
    println!(
        "CEA over re-imported CSVs: F1 {:.3} ({} cells, lookup {:?})",
        report.f1(),
        report.items,
        report.lookup_time
    );
}
