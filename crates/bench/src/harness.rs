//! Shared experiment context: KGs, datasets, trained EmbLookup models and
//! baseline services, built once per flavor and reused across experiments.

use emblookup_core::{Compression, EmbLookup, EmbLookupConfig};
use emblookup_kg::{generate, KgFlavor, LookupService, SynthKg, SynthKgConfig};
use emblookup_semtab::{generate_dataset, Dataset, DatasetConfig};
use std::time::Duration;

/// Master seed for the whole experiment suite; every derived seed offsets
/// from it so the full report is reproducible end to end.
pub const MASTER_SEED: u64 = 2022;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Integration-test scale (seconds).
    Smoke,
    /// Full report scale (minutes).
    Full,
}

impl Scale {
    /// KG config for a flavor at this scale.
    pub fn kg_config(&self, flavor: KgFlavor) -> SynthKgConfig {
        match self {
            Scale::Smoke => SynthKgConfig {
                flavor,
                ..SynthKgConfig::small(MASTER_SEED)
            },
            Scale::Full => SynthKgConfig::benchmark(MASTER_SEED, flavor),
        }
    }

    /// EmbLookup training config at this scale.
    pub fn emblookup_config(&self) -> EmbLookupConfig {
        match self {
            Scale::Smoke => EmbLookupConfig {
                epochs: 6,
                triplets_per_entity: 10,
                ..EmbLookupConfig::fast(MASTER_SEED)
            },
            Scale::Full => EmbLookupConfig {
                // the 10× larger corpus rewards a longer semantic-leg run
                fasttext_epochs: 40,
                ..EmbLookupConfig::fast(MASTER_SEED)
            },
        }
    }

    /// Configuration of the large lookup catalog used by the head-to-head
    /// service comparison (Table V). The paper evaluates lookup over full
    /// Wikidata; speedup magnitudes only emerge once the catalog is much
    /// larger than the training KG, so Table V indexes this bigger graph
    /// with the already-trained model.
    pub fn catalog_kg_config(&self) -> SynthKgConfig {
        match self {
            Scale::Smoke => SynthKgConfig {
                flavor: KgFlavor::Wikidata,
                ..SynthKgConfig::small(MASTER_SEED + 100)
            },
            Scale::Full => SynthKgConfig {
                seed: MASTER_SEED + 100,
                flavor: KgFlavor::Wikidata,
                countries: 300,
                cities: 11_000,
                persons: 11_000,
                organizations: 5_000,
                films: 3_000,
                ambiguity_rate: 0.04,
                mean_aliases: 3,
            },
        }
    }

    /// Number of queries for the head-to-head comparison.
    pub fn catalog_queries(&self) -> usize {
        match self {
            Scale::Smoke => 150,
            Scale::Full => 800,
        }
    }

    /// Dataset config factory scaled down for smoke runs.
    pub fn dataset_config(&self, base: DatasetConfig) -> DatasetConfig {
        match self {
            Scale::Smoke => DatasetConfig {
                tables: (base.tables / 8).max(3),
                ..base
            },
            Scale::Full => base,
        }
    }
}

/// One fully-prepared evaluation environment for a KG flavor.
pub struct Env {
    /// The synthetic KG.
    pub synth: SynthKg,
    /// Clean benchmark dataset for this flavor.
    pub dataset: Dataset,
    /// Trained EmbLookup with PQ compression (the paper's EL).
    pub el: EmbLookup,
    /// Trained EmbLookup without compression (EL-NC), same weights.
    pub el_nc: EmbLookup,
}

impl Env {
    /// Builds the environment: generates the KG and dataset, trains
    /// EmbLookup once, and indexes the same weights twice (PQ and flat).
    pub fn build(flavor: KgFlavor, scale: Scale) -> Self {
        let synth = generate(scale.kg_config(flavor));
        let ds_config = scale.dataset_config(match flavor {
            KgFlavor::Wikidata => DatasetConfig::st_wikidata(MASTER_SEED + 1),
            KgFlavor::DbPedia => DatasetConfig::st_dbpedia(MASTER_SEED + 2),
        });
        let dataset = generate_dataset(&synth, &ds_config);

        let config = scale.emblookup_config();
        // train once (flat index), then re-index the same shared weights
        // under PQ — EL and EL-NC must use the identical embedding model
        let el_nc = EmbLookup::train_on(
            &synth.kg,
            EmbLookupConfig { compression: Compression::None, ..config },
        )
        .with_metrics_scope("el_nc");
        let el = EmbLookup::from_model(el_nc.model_arc(), &synth.kg, Compression::default_pq())
            .with_metrics_scope("el");
        Env { synth, dataset, el, el_nc }
    }
}

/// Speedup of `fast` over `slow`, as the paper reports ("20x").
pub fn speedup(slow: Duration, fast: Duration) -> f64 {
    let f = fast.as_secs_f64();
    if f <= 0.0 {
        return f64::INFINITY;
    }
    slow.as_secs_f64() / f
}

/// Fraction of queries whose ground-truth entity appears in the service's
/// top-`k` — the success criterion of the paper's head-to-head comparison.
pub fn hit_rate_at_k(
    service: &dyn LookupService,
    queries: &[(&str, emblookup_kg::EntityId)],
    k: usize,
) -> f64 {
    if queries.is_empty() {
        return 1.0;
    }
    let texts: Vec<&str> = queries.iter().map(|&(q, _)| q).collect();
    let results = service.lookup_batch(&texts, k);
    let hits = results
        .iter()
        .zip(queries)
        .filter(|(hits, &(_, truth))| hits.iter().any(|c| c.entity == truth))
        .count();
    hits as f64 / queries.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_math() {
        assert_eq!(speedup(Duration::from_secs(10), Duration::from_secs(2)), 5.0);
        assert!(speedup(Duration::from_secs(1), Duration::ZERO).is_infinite());
    }

    #[test]
    fn hit_rate_counts_truth_in_the_top_k() {
        use emblookup_kg::{Candidate, EntityId};
        /// The same ranking for every query.
        struct Fixed(Vec<EntityId>);
        impl LookupService for Fixed {
            fn lookup(&self, _q: &str, k: usize) -> Vec<Candidate> {
                self.0.iter().take(k).map(|&entity| Candidate { entity, score: 0.0 }).collect()
            }
            fn name(&self) -> &str {
                "fixed"
            }
        }
        let svc = Fixed(vec![EntityId(0), EntityId(1), EntityId(2)]);
        // truth at rank 1, at rank 3, and missing
        let queries = [("a", EntityId(0)), ("b", EntityId(2)), ("c", EntityId(9))];
        assert!((hit_rate_at_k(&svc, &queries, 1) - 1.0 / 3.0).abs() < 1e-9);
        assert!((hit_rate_at_k(&svc, &queries, 3) - 2.0 / 3.0).abs() < 1e-9);
        // no queries is vacuously a full hit rate
        assert_eq!(hit_rate_at_k(&Fixed(Vec::new()), &[], 5), 1.0);
    }
}
