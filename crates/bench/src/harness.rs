//! The evaluation's shared context: the [`Suite`] that builds each KG,
//! dataset and trained EmbLookup once per flavor and each experiment's
//! report once, for `repro` and `tests/repro_harness.rs` alike.

use crate::experiments as exp;
use crate::report::Report;
use emblookup_core::{Compression, EmbLookup, EmbLookupConfig};
use emblookup_kg::{generate, EntityId, KgFlavor, LookupService, SynthKg, SynthKgConfig};
use emblookup_semtab::{generate_dataset, Dataset, DatasetConfig};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

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
    pub(crate) fn kg_config(&self, flavor: KgFlavor) -> SynthKgConfig {
        match self {
            Scale::Smoke => SynthKgConfig {
                flavor,
                ..SynthKgConfig::small(MASTER_SEED)
            },
            Scale::Full => SynthKgConfig::benchmark(MASTER_SEED, flavor),
        }
    }

    /// EmbLookup training config at this scale.
    pub(crate) fn emblookup_config(&self) -> EmbLookupConfig {
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

    /// Configuration of the large lookup catalog of the head-to-head
    /// service comparison (Table V). The paper evaluates lookup over full
    /// Wikidata; speedup magnitudes only emerge on a catalog much larger
    /// than the other experiments' KGs.
    pub(crate) fn catalog_kg_config(&self) -> SynthKgConfig {
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
    pub(crate) fn catalog_queries(&self) -> usize {
        match self {
            Scale::Smoke => 150,
            Scale::Full => 800,
        }
    }

    /// Dataset config factory scaled down for smoke runs.
    pub(crate) fn dataset_config(&self, base: DatasetConfig) -> DatasetConfig {
        match self {
            Scale::Smoke => DatasetConfig {
                tables: (base.tables / 8).max(3),
                ..base
            },
            Scale::Full => base,
        }
    }
}

/// The KG of `flavor` at `scale` and its clean benchmark dataset
/// (ST-Wikidata or ST-DBPedia).
pub(crate) fn kg_and_dataset(flavor: KgFlavor, scale: Scale) -> (SynthKg, Dataset) {
    let synth = generate(scale.kg_config(flavor));
    let base = match flavor {
        KgFlavor::Wikidata => DatasetConfig::st_wikidata(MASTER_SEED + 1),
        KgFlavor::DbPedia => DatasetConfig::st_dbpedia(MASTER_SEED + 2),
    };
    let dataset = generate_dataset(&synth, &scale.dataset_config(base));
    (synth, dataset)
}

/// One fully-prepared evaluation environment for a KG flavor.
pub(crate) struct Env {
    /// The synthetic KG.
    pub(crate) synth: SynthKg,
    /// Clean benchmark dataset for this flavor.
    pub(crate) dataset: Dataset,
    /// Trained EmbLookup with PQ compression (the paper's EL).
    pub(crate) el: EmbLookup,
    /// Trained EmbLookup without compression (EL-NC), same weights.
    pub(crate) el_nc: EmbLookup,
}

impl Env {
    /// Builds the environment: generates the KG and dataset, trains
    /// EmbLookup once, and indexes the same weights twice (PQ and flat).
    fn build(flavor: KgFlavor, scale: Scale) -> Self {
        let start = Instant::now();
        let (synth, dataset) = kg_and_dataset(flavor, scale);
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
        eprintln!("[setup] {flavor:?} environment built in {:.1?}", start.elapsed());
        Env { synth, dataset, el, el_nc }
    }
}

/// Builds one experiment's report, asking the suite for what it needs.
type Experiment = fn(&Suite) -> Report;

/// Every experiment by name, in report order.
const EXPERIMENTS: [(&str, Experiment); 13] = [
    ("table1", |s| exp::table1(s.scale)),
    ("table2", |s| exp::speedups(s.wd())),
    ("table3", |s| exp::speedups(s.db())),
    ("table4", |s| exp::table4(s.wd(), s.db(), s.scale)),
    ("table6", |s| exp::table6(s.wd(), s.db(), s.scale)),
    ("table5", |s| exp::table5(s.scale)),
    ("table7", |s| exp::table7(s.wd())),
    ("table8", |s| exp::table8(s.scale)),
    ("ablation", |s| exp::ablation(s.scale)),
    ("fig3", |s| exp::fig3(s.scale)),
    ("fig4", |s| exp::fig4(s.wd())),
    ("fig5", |s| exp::fig5(s.wd())),
    ("sizes", |s| exp::index_sizes(s.wd())),
];

/// Queries of [`Suite::lookup_probe`].
const LATENCY_PROBE_QUERIES: usize = 100;

/// The paper's evaluation at one scale: the two environments (ST-Wikidata
/// and ST-DBPedia), each built when an experiment first asks for it, and
/// each experiment's report, computed once. One `repro` run is one suite,
/// and `tests/repro_harness.rs` shares one static suite across its tests.
pub struct Suite {
    scale: Scale,
    wd: OnceLock<Env>,
    db: OnceLock<Env>,
    reports: [OnceLock<Report>; EXPERIMENTS.len()],
}

impl Suite {
    /// A suite at `scale` that has built nothing yet.
    pub const fn new(scale: Scale) -> Self {
        Suite {
            scale,
            wd: OnceLock::new(),
            db: OnceLock::new(),
            reports: [const { OnceLock::new() }; EXPERIMENTS.len()],
        }
    }

    /// Every experiment's name (`table1` … `table8`, `ablation`, `fig3`,
    /// `fig4`, `fig5`, `sizes`), in report order.
    pub fn experiments() -> impl Iterator<Item = &'static str> {
        EXPERIMENTS.iter().map(|&(name, _)| name)
    }

    fn slot(&self, experiment: &str) -> Option<(&OnceLock<Report>, Experiment)> {
        let i = EXPERIMENTS.iter().position(|&(name, _)| name == experiment)?;
        Some((&self.reports[i], EXPERIMENTS[i].1))
    }

    /// The report of `experiment`, computed on its first call; `None` for
    /// a name not in [`Suite::experiments`].
    pub fn report(&self, experiment: &str) -> Option<&Report> {
        let (slot, run) = self.slot(experiment)?;
        Some(slot.get_or_init(|| run(self)))
    }

    /// The report of `experiment` if it has been computed.
    pub(crate) fn computed(&self, experiment: &str) -> Option<&Report> {
        self.slot(experiment)?.0.get()
    }

    fn wd(&self) -> &Env {
        self.wd.get_or_init(|| Env::build(KgFlavor::Wikidata, self.scale))
    }

    fn db(&self) -> &Env {
        self.db.get_or_init(|| Env::build(KgFlavor::DbPedia, self.scale))
    }

    /// If an experiment built ST-Wikidata: its lookups on EL and EL-NC,
    /// which fill the `lookup.latency.{el,el_nc}` histograms whichever
    /// experiments ran, and the per-stage self-times of traced lookups on
    /// its EL.
    pub fn lookup_probe(&self) -> Option<Report> {
        self.wd.get().map(|env| exp::stage_self_times(env, LATENCY_PROBE_QUERIES))
    }
}

/// Speedup of `fast` over `slow`, as the paper reports ("20x").
pub(crate) fn speedup(slow: Duration, fast: Duration) -> f64 {
    let f = fast.as_secs_f64();
    if f <= 0.0 {
        return f64::INFINITY;
    }
    slow.as_secs_f64() / f
}

/// Fraction of queries whose ground-truth entity appears in the service's
/// top-`k` — the success criterion of the paper's head-to-head comparison.
pub(crate) fn hit_rate_at_k(service: &dyn LookupService, queries: &[(String, EntityId)], k: usize) -> f64 {
    if queries.is_empty() {
        return 1.0;
    }
    let texts: Vec<&str> = queries.iter().map(|(q, _)| q.as_str()).collect();
    let results = service.lookup_batch(&texts, k);
    let hits = results
        .iter()
        .zip(queries)
        .filter(|(hits, (_, truth))| hits.iter().any(|c| c.entity == *truth))
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
        use emblookup_kg::Candidate;
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
        let queries = [("a", 0), ("b", 2), ("c", 9)].map(|(q, id)| (q.to_string(), EntityId(id)));
        assert!((hit_rate_at_k(&svc, &queries, 1) - 1.0 / 3.0).abs() < 1e-9);
        assert!((hit_rate_at_k(&svc, &queries, 3) - 2.0 / 3.0).abs() < 1e-9);
        // no queries is vacuously a full hit rate
        assert_eq!(hit_rate_at_k(&Fixed(Vec::new()), &[], 5), 1.0);
    }
}
