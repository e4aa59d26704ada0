//! Failure injection: malformed inputs, degenerate graphs, and corrupted
//! persistence buffers must produce errors or sane fallbacks, never UB or
//! surprising panics.

use emblookup::core::EmbLookupModel;
use emblookup::kg::{kg_from_bytes, kg_to_bytes};
use emblookup::prelude::*;

#[test]
fn kg_deserialization_rejects_every_truncation_point() {
    let kg = generate(SynthKgConfig::tiny(90)).kg;
    let bytes = kg_to_bytes(&kg);
    // cutting the buffer anywhere must yield Err, not panic
    for cut in [0, 1, 7, 8, 9, bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            kg_from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} accepted"
        );
    }
}

#[test]
fn kg_deserialization_rejects_bit_flips_in_header() {
    let kg = generate(SynthKgConfig::tiny(91)).kg;
    let mut bytes = kg_to_bytes(&kg);
    bytes[0] ^= 0xFF; // break magic
    assert!(kg_from_bytes(&bytes).is_err());
}

#[test]
fn model_load_with_garbage_is_an_error() {
    assert!(EmbLookupModel::from_bytes(&[], EmbLookupConfig::tiny(0)).is_err());
    assert!(EmbLookupModel::from_bytes(&[0u8; 64], EmbLookupConfig::tiny(0)).is_err());
}

#[test]
fn lookup_k_zero_returns_empty() {
    let synth = generate(SynthKgConfig::tiny(92));
    let service = EmbLookup::train_on(&synth.kg, EmbLookupConfig::tiny(92));
    assert!(service.lookup("anything", 0).is_empty());
}

#[test]
fn lookup_k_larger_than_kg_returns_all() {
    let synth = generate(SynthKgConfig::tiny(93));
    let service = EmbLookup::train_on(&synth.kg, EmbLookupConfig::tiny(93));
    let hits = service.lookup("anything", 10_000);
    assert_eq!(hits.len(), synth.kg.num_entities());

    // No `k` is too large on any backend: an index answers with what it
    // holds (`1 << 40` used to be reserved as asked and abort the process,
    // `usize::MAX` to overflow `k + 1` and `4 * k`).
    let n = synth.kg.num_entities();
    let compressions = [
        Compression::None,
        Compression::Pq { m: 4, ks: 16 },
        Compression::Pca { k: 4 },
        Compression::HnswPq { m: 8, ef_search: 32, pq_m: 4, pq_ks: 16 },
    ];
    for compression in compressions {
        let service = EmbLookup::from_model(service.model_arc(), &synth.kg, compression);
        for k in [n + 1, 1 << 40, usize::MAX] {
            let hits = service.lookup_with_distances("anything", k);
            assert_eq!(hits.len(), n, "{} k {k}", compression.name());
            assert!(hits.windows(2).all(|w| w[0].1 <= w[1].1), "{} k {k}", compression.name());
            let bulk = service.bulk_lookup(&["anything", "else"], k);
            assert_eq!(bulk[0], hits, "{} k {k}", compression.name());
        }
    }
}

#[test]
fn baselines_survive_pathological_queries() {
    use emblookup::baselines::*;
    let synth = generate(SynthKgConfig::tiny(94));
    let kg = &synth.kg;
    let services: Vec<Box<dyn LookupService>> = vec![
        Box::new(ExactMatchService::new(kg, true)),
        Box::new(LevenshteinService::new(kg, false, 3)),
        Box::new(QGramService::new(kg, false, 3)),
        Box::new(FuzzyWuzzyService::new(kg)),
        Box::new(ElasticLikeService::new(kg, false)),
        Box::new(ElasticOpService::new(kg, ElasticOp::Levenshtein)),
    ];
    let nasty = [
        "",
        " ",
        "\u{0}",
        "🦀🦀🦀",
        "' OR 1=1 --",
        &"a".repeat(5_000),
        "\n\n\n",
    ];
    for svc in &services {
        for q in nasty {
            let hits = svc.lookup(q, 5);
            assert!(hits.len() <= 5, "{} overflowed k on {q:?}", svc.name());
        }
        // a `k` beyond the catalog is a bound on the answer, not a size to reserve
        let label = &kg.entities().next().expect("tiny KG has entities").label;
        assert!(svc.lookup(label, usize::MAX).len() <= kg.num_entities(), "{}", svc.name());
    }
}

#[test]
fn annotation_of_empty_table_is_a_noop() {
    use emblookup::semtab::{AnnotationSystem, BbwSystem, Table};
    use emblookup::baselines::ExactMatchService;
    let synth = generate(SynthKgConfig::tiny(95));
    let service = ExactMatchService::new(&synth.kg, false);
    let empty = Table { id: 0, rows: vec![], col_types: vec![] };
    let ann = BbwSystem.annotate(&synth.kg, &empty, &service, 5);
    assert!(ann.cell_entities.is_empty());
    assert!(ann.col_types.is_empty());
}

#[test]
fn config_validation_blocks_invalid_training() {
    let mut config = EmbLookupConfig::tiny(96);
    config.compression = Compression::Pq { m: 5, ks: 16 }; // 5 ∤ 16
    let synth = generate(SynthKgConfig::tiny(96));
    let result = std::panic::catch_unwind(|| EmbLookup::train_on(&synth.kg, config));
    assert!(result.is_err(), "invalid config must refuse to train");
}
