//! Bulk annotation — the paper's motivating scenario (§I): SemTab-style
//! challenges need semantic annotation of hundreds of thousands of cells,
//! and remote lookup services take days under rate limits. This example
//! annotates an entire benchmark dataset with a rate-limited remote
//! service and with EmbLookup, comparing lookup cost end to end.
//!
//! ```text
//! cargo run --release --example bulk_annotation
//! ```

use emblookup::baselines::{ExactMatchService, RemoteCostModel, RemoteService};
use emblookup::prelude::*;
use emblookup::semtab::BbwSystem;

fn main() {
    let synth = generate(SynthKgConfig::small(17));
    let dataset = generate_dataset(&synth, &DatasetConfig::st_wikidata(17));
    let cells = dataset.num_entity_cells();
    println!(
        "workload: {} tables, {} entity cells to annotate",
        dataset.tables.len(),
        cells
    );

    // the status quo: a rate-limited remote endpoint (5 concurrent queries)
    let remote = RemoteService::new(
        ExactMatchService::new(&synth.kg, true),
        RemoteCostModel::wikidata(),
        "Wikidata API",
    );

    println!("training EmbLookup…");
    let emblookup = EmbLookup::train_on(&synth.kg, EmbLookupConfig::fast(17));

    for service in [&remote as &dyn LookupService, &emblookup as &dyn LookupService] {
        let (report, _) = run_cea_cta(&synth.kg, &dataset, &BbwSystem, service, 20);
        let per_cell = report.lookup_time.as_secs_f64() / cells as f64;
        println!(
            "{:<14} CEA F1 {:.3} | lookup {:>9.2?} total ({:.2} ms/cell) | extrapolated to 768K cells: {:.1} h",
            service.name(),
            report.f1(),
            report.lookup_time,
            per_cell * 1e3,
            per_cell * 768_000.0 / 3600.0,
        );
    }
    println!(
        "\n(the SemTab 2020 Round 3 submissions the paper cites took 2–3 days \
         via remote services for 768K cells)"
    );
}
