//! The accuracy/storage/latency trade-off of §III-D: the same trained
//! model served from an uncompressed index, a product-quantized index, a
//! PCA-compressed index, and the PQ-fused HNSW graph the served tier runs.
//!
//! ```text
//! cargo run --release --example compression_tradeoff
//! ```

use emblookup::prelude::*;
use std::time::Instant;

fn main() {
    let synth = generate(SynthKgConfig::small(23));
    println!("training EmbLookup once…");
    let base = EmbLookup::train_on(
        &synth.kg,
        EmbLookupConfig {
            compression: Compression::None,
            ..EmbLookupConfig::fast(23)
        },
    );
    let model = base.model_arc();

    // re-index the same weights under each compression scheme
    let variants = [
        ("flat (EL-NC)", Compression::None),
        ("PQ 8x256 (EL)", Compression::default_pq()),
        ("PCA k=8", Compression::Pca { k: 8 }),
        (
            "HnswPq m=16",
            Compression::HnswPq { m: 16, ef_search: 64, pq_m: 8, pq_ks: 256 },
        ),
    ];

    // workload: every entity label, corrupted once
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let injector = emblookup::text::NoiseInjector::typos();
    let queries: Vec<(String, EntityId)> = synth
        .kg
        .entities()
        .map(|e| (injector.corrupt(&e.label, &mut rng), e.id))
        .collect();
    let refs: Vec<&str> = queries.iter().map(|(q, _)| q.as_str()).collect();

    println!("\n{:<16} {:>12} {:>10} {:>10}", "index", "bytes", "hit@10", "time");
    for (name, compression) in variants {
        let service = EmbLookup::from_model(model.clone(), &synth.kg, compression);
        let start = Instant::now();
        let results = service.lookup_batch(&refs, 10);
        let elapsed = start.elapsed();
        let hits = results
            .iter()
            .zip(&queries)
            .filter(|(hits, (_, truth))| hits.iter().any(|c| c.entity == *truth))
            .count();
        println!(
            "{:<16} {:>12} {:>10.3} {:>10.1?}",
            name,
            service.index().nbytes(),
            hits as f64 / queries.len() as f64,
            elapsed
        );
    }
}
