//! The end-to-end EmbLookup service: train → embed → index → `lookup(q, k)`.

use crate::config::{Compression, EmbLookupConfig};
use crate::errors::TrainError;
use crate::index::EntityIndex;
use crate::mining::{mine_triplets, MiningConfig};
use crate::model::EmbLookupModel;
use crate::trainer::{train, TrainReport};
use emblookup_ann::VectorSet;
use emblookup_embed::{Corpus, FastText, FastTextConfig};
use emblookup_kg::{Candidate, EntityId, KnowledgeGraph, LookupService};
use emblookup_obs::names;
use emblookup_obs::Histogram;
use std::sync::Arc;

/// A trained EmbLookup pipeline ready to serve lookups over one KG.
///
/// Scores returned through [`LookupService`] are negated squared distances
/// so that higher is better, matching the trait contract.
pub struct EmbLookup {
    model: Arc<EmbLookupModel>,
    index: EntityIndex,
    report: TrainReport,
    /// Pre-resolved latency histogram: the hot lookup path does a single
    /// atomic record per query and never touches the registry lock.
    lookup_hist: Arc<Histogram>,
    bulk_hist: Arc<Histogram>,
    /// Per-query latency attributed inside a batch: the batch's wall time
    /// divided across its queries (`lookup.latency.bulk`, or
    /// `lookup.latency.<scope>.bulk` under a metrics scope).
    bulk_query_hist: Arc<Histogram>,
    bulk_queries: Arc<emblookup_obs::Counter>,
}

impl EmbLookup {
    /// Trains the full pipeline on a knowledge graph:
    /// corpus verbalization → fastText → triplet mining → two-phase
    /// triplet training → entity index build.
    ///
    /// Thin panicking wrapper over [`EmbLookup::try_train_on`] for
    /// callers that treat a bad config or empty KG as a programming
    /// error; the serving layer uses the fallible twin and answers `400`.
    ///
    /// # Panics
    /// Panics on an empty KG or invalid configuration.
    pub fn train_on(kg: &KnowledgeGraph, config: EmbLookupConfig) -> Self {
        match Self::try_train_on(kg, config) {
            Ok(service) => service,
            #[expect(clippy::panic, reason = "documented panic contract of the thin wrapper; try_train_on is the fallible path")]
            Err(e) => panic!("EmbLookup::train_on: {e}"),
        }
    }

    /// Fallible twin of [`EmbLookup::train_on`]: rejects invalid
    /// configuration, an empty knowledge graph, or a mining setup that
    /// yields no triplets as typed [`TrainError`]s instead of aborting
    /// the process.
    ///
    /// # Errors
    /// [`TrainError::InvalidConfig`] when `config` fails validation,
    /// [`TrainError::EmptyKg`] when `kg` has no entities, and
    /// [`TrainError::NoTriplets`] when mining produces nothing to train
    /// on.
    pub fn try_train_on(kg: &KnowledgeGraph, config: EmbLookupConfig) -> Result<Self, TrainError> {
        config.validate().map_err(TrainError::InvalidConfig)?;
        if kg.num_entities() == 0 {
            return Err(TrainError::EmptyKg);
        }
        if config.triplets_per_entity == 0 {
            return Err(TrainError::NoTriplets);
        }
        let total = emblookup_obs::Span::enter(names::TRAIN_TOTAL);

        let corpus = Corpus::from_kg(kg);
        let fasttext = {
            let _span = emblookup_obs::Span::enter(names::TRAIN_FASTTEXT);
            FastText::train(
                &corpus,
                FastTextConfig {
                    dim: config.fasttext_dim,
                    epochs: config.fasttext_epochs,
                    seed: config.seed,
                    ..Default::default()
                },
            )
        };
        let mut model = EmbLookupModel::new(fasttext, config.clone());
        let triplets = mine_triplets(
            kg,
            &MiningConfig::with_budget(config.triplets_per_entity, config.seed),
        );
        if triplets.is_empty() {
            return Err(TrainError::NoTriplets);
        }
        let report = train(&mut model, &triplets);
        let index = EntityIndex::build(&model, kg, config.compression, num_threads());
        drop(total);
        Ok(Self::assemble(Arc::new(model), index, report))
    }

    /// Wraps an already-trained (shared) model, building a fresh index
    /// over `kg` with the given compression — the compression sweeps train
    /// once and re-index the same weights repeatedly.
    pub fn from_model(model: Arc<EmbLookupModel>, kg: &KnowledgeGraph, compression: Compression) -> Self {
        let index = EntityIndex::build(&model, kg, compression, num_threads());
        Self::assemble(model, index, TrainReport::default())
    }

    fn assemble(model: Arc<EmbLookupModel>, index: EntityIndex, report: TrainReport) -> Self {
        let reg = emblookup_obs::global();
        EmbLookup {
            model,
            index,
            report,
            lookup_hist: reg.histogram(names::LOOKUP_LATENCY),
            bulk_hist: reg.histogram(names::LOOKUP_BULK),
            bulk_query_hist: reg.histogram(names::LOOKUP_LATENCY_BULK),
            bulk_queries: reg.counter(names::LOOKUP_BULK_QUERIES),
        }
    }

    /// Re-points the per-query latency histograms at
    /// `lookup.latency.<scope>` / `lookup.latency.<scope>.bulk` — the
    /// benchmarks use this to separate EL (PQ) from EL-NC (flat) timings
    /// in one registry.
    pub fn with_metrics_scope(mut self, scope: &str) -> Self {
        let reg = emblookup_obs::global();
        self.lookup_hist = reg.histogram_scoped(names::LOOKUP_LATENCY, scope);
        self.bulk_query_hist = reg.histogram_scoped(names::LOOKUP_LATENCY, &format!("{scope}.bulk"));
        self
    }

    /// The underlying model.
    pub fn model(&self) -> &EmbLookupModel {
        &self.model
    }

    /// A shared handle to the model (for re-indexing under a different
    /// compression without retraining).
    pub fn model_arc(&self) -> Arc<EmbLookupModel> {
        Arc::clone(&self.model)
    }

    /// The entity index.
    pub fn index(&self) -> &EntityIndex {
        &self.index
    }

    /// Takes the service apart into its model and its index — for a
    /// caller (the serving tier) that searches the index through a
    /// structure of its own.
    pub fn into_parts(self) -> (Arc<EmbLookupModel>, EntityIndex) {
        (self.model, self.index)
    }

    /// Training statistics.
    pub fn report(&self) -> &TrainReport {
        &self.report
    }

    /// Embeds a query and returns the `k` nearest entities with distances.
    ///
    /// Latency (embed + ANN search) is recorded with one atomic histogram
    /// update; no lock is held across the search.
    pub fn lookup_with_distances(&self, q: &str, k: usize) -> Vec<(EntityId, f32)> {
        let start = std::time::Instant::now();
        let hits = self.model.with_embedding(q, |emb| self.index.search(emb, k));
        self.lookup_hist.record_duration(start.elapsed());
        hits
    }

    /// Bulk lookup: embeds all queries and searches the index, both split
    /// across [`num_threads`] threads (the GPU-surrogate path).
    ///
    /// Whole-batch wall time goes to `lookup.bulk`; the same time divided
    /// across the batch's queries is attributed per query into
    /// `lookup.latency.bulk`, so batched and single-query latency land in
    /// one comparable `lookup.latency.*` family.
    pub fn bulk_lookup(&self, queries: &[&str], k: usize) -> Vec<Vec<(EntityId, f32)>> {
        let start = std::time::Instant::now();
        let threads = num_threads();
        let embeddings = self.model.embed_batch(queries, threads);
        let qs = VectorSet::from_flat(self.model.dim(), embeddings.concat());
        let hits = self.index.search_batch(&qs, k, threads);
        let elapsed = start.elapsed();
        self.bulk_hist.record_duration(elapsed);
        if !queries.is_empty() {
            let per_query =
                u64::try_from(elapsed.as_nanos() / queries.len() as u128).unwrap_or(u64::MAX);
            self.bulk_query_hist.record_n(per_query, queries.len() as u64);
        }
        self.bulk_queries.add(queries.len() as u64);
        hits
    }

    /// Traced twin of [`EmbLookup::lookup_with_distances`]: identical
    /// results and the same histogram recording (linked to the trace as
    /// an exemplar), plus `stage.encode` / `stage.search` child spans
    /// under `parent` with the backend's `visited` annotation.
    pub fn lookup_with_distances_traced(
        &self,
        q: &str,
        k: usize,
        parent: &emblookup_obs::TraceSpan,
    ) -> Vec<(EntityId, f32)> {
        let start = std::time::Instant::now();
        let encode = parent.child(names::SPAN_STAGE_ENCODE);
        let hits = self.model.with_embedding(q, |emb| {
            encode.finish();
            let search = parent.child(names::SPAN_STAGE_SEARCH);
            let hits = self.index.search_traced(emb, k, &search);
            search.finish();
            hits
        });
        self.lookup_hist
            .record_duration_with_exemplar(start.elapsed(), parent.trace().id());
        hits
    }
}

impl LookupService for EmbLookup {
    fn lookup(&self, q: &str, k: usize) -> Vec<Candidate> {
        self.lookup_with_distances(q, k)
            .into_iter()
            .map(|(entity, dist)| Candidate { entity, score: -dist })
            .collect()
    }

    fn name(&self) -> &str {
        "EmbLookup"
    }

    fn lookup_batch(&self, queries: &[&str], k: usize) -> Vec<Vec<Candidate>> {
        self.bulk_lookup(queries, k)
            .into_iter()
            .map(|hits| {
                hits.into_iter()
                    .map(|(entity, dist)| Candidate { entity, score: -dist })
                    .collect()
            })
            .collect()
    }
}

/// Degree of parallelism for bulk paths. Delegates to the pool's cached
/// [`emblookup_pool::default_threads`] (`EMBLOOKUP_THREADS` override,
/// else cores minus one, at least 1) — resolved once per process instead
/// of re-querying `available_parallelism` on every call.
pub fn num_threads() -> usize {
    emblookup_pool::default_threads()
}

#[cfg(test)]
mod tests {
    use super::*;
    use emblookup_kg::{generate, SynthKgConfig};

    fn trained() -> (EmbLookup, emblookup_kg::SynthKg) {
        let s = generate(SynthKgConfig::tiny(8));
        let el = EmbLookup::train_on(&s.kg, EmbLookupConfig::tiny(8));
        (el, s)
    }

    #[test]
    fn exact_label_lookup_hits_owner() {
        let (el, s) = trained();
        let mut hits_at_5 = 0;
        let total = s.kg.num_entities().min(30);
        for e in s.kg.entities().take(total) {
            let hits = el.lookup(&e.label, 5);
            if hits.iter().any(|c| c.entity == e.id) {
                hits_at_5 += 1;
            }
        }
        // tiny training budget, but exact labels must mostly resolve
        assert!(
            hits_at_5 * 3 >= total * 2,
            "only {hits_at_5}/{total} exact labels resolved in top-5"
        );
    }

    #[test]
    fn lookup_returns_k_sorted_by_score() {
        let (el, s) = trained();
        let label = &s.kg.entities().next().unwrap().label;
        let hits = el.lookup(label, 7);
        assert_eq!(hits.len(), 7);
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn batch_agrees_with_single() {
        // the timed bulk lookup the tables run returns what one
        // `lookup_with_distances` per query returns, scores to the bit,
        // over the flat index and over PQ
        let (el, s) = trained();
        let labels: Vec<&str> = s.kg.entities().take(6).map(|e| e.label.as_str()).collect();
        let pq = EmbLookup::from_model(el.model_arc(), &s.kg, Compression::Pq { m: 4, ks: 16 });
        for service in [&el, &pq] {
            let (batch, _) = service.lookup_batch_timed(&labels, 3);
            assert_eq!(batch.len(), labels.len());
            for (q, hits) in labels.iter().zip(&batch) {
                let bulk: Vec<(EntityId, u32)> = hits.iter().map(|c| (c.entity, c.score.to_bits())).collect();
                let single: Vec<(EntityId, u32)> = service
                    .lookup_with_distances(q, 3)
                    .into_iter()
                    .map(|(entity, dist)| (entity, (-dist).to_bits()))
                    .collect();
                assert_eq!(bulk, single, "{} {q:?}", service.index().backend_name());
            }
        }
    }

    #[test]
    fn handles_garbage_queries() {
        let (el, _) = trained();
        for q in ["", "    ", "@@@###", &"z".repeat(300)] {
            let hits = el.lookup(q, 3);
            assert_eq!(hits.len(), 3); // nearest entities always exist
        }
    }

    #[test]
    fn training_report_is_recorded() {
        let (el, _) = trained();
        assert_eq!(el.report().epochs.len(), 4);
        assert!(el.report().final_loss().is_finite());
    }

    #[test]
    fn try_train_on_rejects_bad_inputs_without_panicking() {
        let s = generate(SynthKgConfig::tiny(8));
        let mut bad = EmbLookupConfig::tiny(8);
        bad.epochs = 0;
        match EmbLookup::try_train_on(&s.kg, bad) {
            Err(crate::errors::TrainError::InvalidConfig(why)) => {
                assert!(why.contains("epochs"), "{why}")
            }
            Err(other) => panic!("expected InvalidConfig, got {other:?}"),
            Ok(_) => panic!("expected InvalidConfig, got a trained service"),
        }
        let empty = emblookup_kg::KnowledgeGraph::new();
        assert!(matches!(
            EmbLookup::try_train_on(&empty, EmbLookupConfig::tiny(8)),
            Err(crate::errors::TrainError::EmptyKg)
        ));
        let mut no_triplets = EmbLookupConfig::tiny(8);
        no_triplets.triplets_per_entity = 0;
        assert!(matches!(
            EmbLookup::try_train_on(&s.kg, no_triplets),
            Err(crate::errors::TrainError::NoTriplets)
        ));
    }

    #[test]
    fn try_train_on_succeeds_and_matches_wrapper_contract() {
        let s = generate(SynthKgConfig::tiny(8));
        let el = EmbLookup::try_train_on(&s.kg, EmbLookupConfig::tiny(8)).expect("valid setup");
        assert_eq!(el.report().epochs.len(), 4);
        assert_eq!(el.lookup("anything", 2).len(), 2);
    }

    /// FNV-1a over `EmbLookupModel::to_bytes()` after `train_on` the tiny
    /// graph: fastText's SGNS, the tape's forward and backward passes and
    /// Adam, end to end. The `EMBLOOKUP_KERNEL=scalar` and `auto` runs of
    /// the gate must both arrive at it, at any pool width.
    const TRAINED_MODEL_FNV1A: u64 = 0xcb4c_8f48_11db_f578;

    /// FNV-1a over a model's serialized bytes.
    fn model_fnv1a(model: &EmbLookupModel) -> u64 {
        model
            .to_bytes()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
    }

    #[test]
    fn trained_model_hashes_to_the_golden_value_under_every_kernel_variant() {
        let (el, _) = trained();
        let hash = model_fnv1a(el.model());
        assert_eq!(hash, TRAINED_MODEL_FNV1A, "got {hash:#018x}");
    }

    /// [`TRAINED_MODEL_FNV1A`] for the paper's architecture — 5 conv
    /// layers of 8 kernels, `max_len` 32, 4 pool segments, hidden 128,
    /// 64-d — which the tiny configuration does not reach: 8 channels take
    /// the one-hot gather and 64 outputs fill whole kernel blocks. A short
    /// `train_on` on the tiny graph, one offline and one online epoch.
    const PAPER_ARCHITECTURE_MODEL_FNV1A: u64 = 0xc821_f9bf_6643_2419;

    #[test]
    fn paper_architecture_model_hashes_to_the_golden_value_under_every_kernel_variant() {
        let s = generate(SynthKgConfig::tiny(8));
        let config = EmbLookupConfig {
            epochs: 2,
            triplets_per_entity: 3,
            fasttext_epochs: 2,
            batch_size: 64,
            compression: Compression::None,
            ..EmbLookupConfig::fast(8)
        };
        let el = EmbLookup::train_on(&s.kg, config);
        let hash = model_fnv1a(el.model());
        assert_eq!(hash, PAPER_ARCHITECTURE_MODEL_FNV1A, "got {hash:#018x}");
    }

    #[test]
    #[should_panic(expected = "EmbLookup::train_on")]
    fn train_on_wrapper_panics_on_invalid_config() {
        let s = generate(SynthKgConfig::tiny(8));
        let mut bad = EmbLookupConfig::tiny(8);
        bad.batch_size = 0;
        let _ = EmbLookup::train_on(&s.kg, bad);
    }

    #[test]
    fn traced_lookups_match_untraced_and_build_stage_spans() {
        use emblookup_obs::{Trace, TraceClock};
        let (el, s) = trained();
        let label = s.kg.entities().next().unwrap().label.as_str();

        let trace = Trace::start(0xF00D, TraceClock::real());
        let root = trace.root(names::SPAN_LOOKUP_REQUEST.as_str());
        let traced = el.lookup_with_distances_traced(label, 5, &root);
        assert_eq!(traced, el.lookup_with_distances(label, 5));
        root.finish();
        let data = trace.snapshot();
        let span_names: Vec<&str> = data.spans.iter().map(|sp| sp.name).collect();
        assert_eq!(
            span_names,
            [names::SPAN_LOOKUP_REQUEST, names::SPAN_STAGE_ENCODE, names::SPAN_STAGE_SEARCH]
                .map(names::Name::as_str)
        );
    }
}
