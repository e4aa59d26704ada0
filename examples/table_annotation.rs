//! Semantic table annotation with a pluggable lookup service.
//!
//! Generates a tabular benchmark over a synthetic KG, then runs the
//! MantisTable-style annotation pipeline twice — once with an
//! ElasticSearch-like lookup, once with EmbLookup — and compares F-scores
//! and lookup time on clean and noisy tables, mirroring the paper's
//! Tables II and IV.
//!
//! ```text
//! cargo run --release --example table_annotation
//! ```

use emblookup::baselines::ElasticLikeService;
use emblookup::prelude::*;
use emblookup::semtab::{with_noise, MantisTableSystem};

fn main() {
    let synth = generate(SynthKgConfig::small(7));
    let clean = generate_dataset(&synth, &DatasetConfig::st_wikidata(7));
    let noisy = with_noise(&clean, 0.30, 7);
    println!(
        "dataset: {} tables, {} annotatable cells",
        clean.tables.len(),
        clean.num_entity_cells()
    );

    println!("training EmbLookup…");
    let emblookup = EmbLookup::train_on(&synth.kg, EmbLookupConfig::fast(7));
    let elastic = ElasticLikeService::new(&synth.kg, false);

    let system = MantisTableSystem;
    for (tag, ds) in [("clean", &clean), ("30% noise", &noisy)] {
        println!("\n=== {tag} tables ===");
        for service in [&elastic as &dyn LookupService, &emblookup as &dyn LookupService] {
            let (cea, cta) = run_cea_cta(&synth.kg, ds, &system, service, 20);
            println!(
                "  {:<12} CEA F1 {:.3} | CTA F1 {:.3} | lookup {:?}",
                service.name(),
                cea.f1(),
                cta.f1(),
                cea.lookup_time
            );
        }
    }
}
