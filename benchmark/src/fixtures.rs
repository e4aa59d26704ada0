//! Seeded inputs: two knowledge graphs, one trained model, and the query
//! streams. Everything here is a pure function of `--seed`.

use crate::hostref::HostRef;
use emblookup_core::{Compression, EmbLookup, EmbLookupConfig, EmbLookupModel};
use emblookup_kg::{generate, EntityId, KgFlavor, KnowledgeGraph, SynthKgConfig};
use emblookup_text::NoiseInjector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Queries generated per graph; workloads cycle through them.
pub const QUERIES_PER_GRAPH: usize = 20_000;

/// One query string and the entity it was derived from. The program
/// under test only ever sees `text`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub text: String,
    pub gold: EntityId,
}

/// The shared inputs of a run.
pub struct Fixtures {
    pub seed: u64,
    /// 600 entities: the graph the model is trained on.
    pub kg_small: KnowledgeGraph,
    /// ≈19k entities, indexed with the same model.
    pub kg_large: KnowledgeGraph,
    pub model: Arc<EmbLookupModel>,
    pub queries_small: Vec<Query>,
    pub queries_large: Vec<Query>,
    /// Seconds spent generating both graphs.
    pub kg_generate_s: f64,
    /// Seconds spent in `EmbLookup::train_on`.
    pub train_s: f64,
    /// Host speed while the graphs were generated and the model trained:
    /// the mean of a burst of the reference before and one after (one
    /// thread, as training runs on one).
    pub host_speed: f64,
}

/// The training configuration: the paper's architecture (64-d, 5 conv
/// layers of 8 kernels) with a training budget cut until one run's
/// set-up fits the driver's time cap (≈3.5 s here). Quality stays at
/// hit@10 ≈ 0.9 on the training graph.
pub fn train_config(seed: u64) -> EmbLookupConfig {
    EmbLookupConfig {
        epochs: 2,
        triplets_per_entity: 6,
        fasttext_epochs: 20,
        ..EmbLookupConfig::fast(seed)
    }
}

fn large_config(seed: u64) -> SynthKgConfig {
    let mut c = SynthKgConfig::benchmark(seed, KgFlavor::Wikidata);
    c.cities *= 5;
    c.persons *= 5;
    c.organizations *= 5;
    c.films *= 5;
    c
}

/// 40 % exact labels, 40 % one typo, 20 % a KG alias (the label again
/// when the entity has none), over uniformly drawn entities.
pub fn generate_queries(kg: &KnowledgeGraph, seed: u64, n: usize) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51_7E_A5_ED);
    let typos = NoiseInjector::typos();
    (0..n)
        .map(|_| {
            let gold = EntityId(rng.gen_range(0..kg.num_entities()) as u32);
            let label = kg.label(gold);
            let kind: f64 = rng.gen();
            let text = if kind < 0.4 {
                label.to_string()
            } else if kind < 0.8 {
                typos.corrupt(label, &mut rng)
            } else {
                let aliases = kg.aliases(gold);
                if aliases.is_empty() {
                    label.to_string()
                } else {
                    aliases[rng.gen_range(0..aliases.len())].clone()
                }
            };
            Query { text, gold }
        })
        .collect()
}

/// Generates both graphs, trains the one model and derives the queries.
pub fn build(seed: u64, host: &HostRef) -> Fixtures {
    let speed_before = host.burst_on(1);
    let t = Instant::now();
    let kg_small = generate(SynthKgConfig::small(seed)).kg;
    let kg_large = generate(large_config(seed)).kg;
    let kg_generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let trained = EmbLookup::train_on(&kg_small, train_config(seed));
    let train_s = t.elapsed().as_secs_f64();
    let host_speed = (speed_before + host.burst_on(1)) / 2.0;

    let queries_small = generate_queries(&kg_small, seed, QUERIES_PER_GRAPH);
    let queries_large = generate_queries(&kg_large, seed.wrapping_add(1), QUERIES_PER_GRAPH);
    Fixtures {
        seed,
        kg_small,
        kg_large,
        model: trained.model_arc(),
        queries_small,
        queries_large,
        kg_generate_s,
        train_s,
        host_speed,
    }
}

/// The same weights under a configuration that names `compression`.
/// `Server::start` shards with `model.config().compression`, not with
/// the service's own index, so a served workload needs this.
pub fn model_with_compression(
    model: &EmbLookupModel,
    compression: Compression,
) -> Arc<EmbLookupModel> {
    let config = EmbLookupConfig {
        compression,
        ..model.config().clone()
    };
    Arc::new(
        EmbLookupModel::from_bytes(&model.to_bytes(), config)
            .expect("a model reloads under its own architecture"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_are_a_pure_function_of_the_seed() {
        let kg = generate(SynthKgConfig::tiny(3)).kg;
        let a = generate_queries(&kg, 11, 500);
        assert_eq!(a, generate_queries(&kg, 11, 500));
        assert_ne!(a, generate_queries(&kg, 12, 500));
        // the mix holds: a fair share of exact labels, and a fair share
        // of strings that are not the label
        let exact = a.iter().filter(|q| q.text == kg.label(q.gold)).count();
        assert!((150..=350).contains(&exact), "{exact} exact of 500");
        assert!(a.iter().all(|q| (q.gold.0 as usize) < kg.num_entities()));
    }

    #[test]
    fn large_graph_is_the_benchmark_graph_times_five() {
        let c = large_config(1);
        assert_eq!(c.total_entities(), 60 + 5 * (1400 + 1400 + 600 + 400));
    }
}
