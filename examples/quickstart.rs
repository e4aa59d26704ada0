//! Quickstart: train EmbLookup on a synthetic knowledge graph and look up
//! entities through exact labels, misspellings and aliases.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, reason = "an example: a panic is its error report")]

use emblookup::prelude::*;

fn main() {
    // 1. A knowledge graph. Here: a deterministic synthetic graph with
    //    labels, aliases (abbreviations, translations, …) and facts.
    let synth = generate(SynthKgConfig::small(42));
    println!(
        "knowledge graph: {} entities, {} facts",
        synth.kg.num_entities(),
        synth.kg.num_facts()
    );

    // 2. Train the full EmbLookup pipeline: verbalized corpus → fastText
    //    semantic leg → triplet mining → two-phase triplet training →
    //    product-quantized entity index.
    let service = EmbLookup::train_on(&synth.kg, EmbLookupConfig::fast(42));
    println!(
        "trained: final triplet loss {:.4}, index {} bytes for {} entities",
        service.report().final_loss(),
        service.index().nbytes(),
        service.index().len()
    );

    // 3. Look up an entity by its exact label, by a typo, and by an alias.
    let entity = synth.kg.entities().nth(30).unwrap();
    let label = entity.label.clone();
    let typo = {
        // corrupt the label with one random edit
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        emblookup::text::NoiseInjector::typos().corrupt(&label, &mut rng)
    };
    let alias = entity.aliases.first().cloned().unwrap_or_else(|| label.clone());

    for query in [label.as_str(), typo.as_str(), alias.as_str()] {
        let hits = service.lookup(query, 5);
        println!("\nlookup({query:?}, 5):");
        for c in &hits {
            let marker = if c.entity == entity.id { "  <-- ground truth" } else { "" };
            println!(
                "  {:<28} score {:>8.4}{}",
                synth.kg.label(c.entity),
                c.score,
                marker
            );
        }
    }
}
