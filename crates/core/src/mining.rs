//! Triplet mining (§III-B "Triplet Generation" and "Heuristics for Triplet
//! Mining").
//!
//! Per entity we mine `(anchor, positive, negative)` string triplets from
//! three families:
//!
//! 1. **Semantic**: the entity's aliases as positives;
//! 2. **Syntactic**: noise-injected variants of the label as positives
//!    (dropping/inserting/transposing characters, abbreviations, …);
//! 3. **Type-sharing**: labels of same-type entities as weak positives,
//!    injecting lightweight type-level semantics.
//!
//! Negatives are labels of randomly chosen (unrelated) entities.

use emblookup_kg::{EntityId, KnowledgeGraph};
use emblookup_obs::names;
use emblookup_text::{NoiseInjector, NoiseKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One training triplet of mention strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Triplet {
    /// Anchor mention (the entity's primary label).
    pub anchor: String,
    /// Positive mention (alias, perturbation, or same-type label).
    pub positive: String,
    /// Negative mention (label of an unrelated entity).
    pub negative: String,
}

/// Which mining family produced a triplet (exposed for ablation benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripletFamily {
    /// Alias positives.
    Semantic,
    /// Noise-injected label positives.
    Syntactic,
    /// Same-type label positives.
    TypeSharing,
}

/// Mining configuration.
#[derive(Debug, Clone)]
pub struct MiningConfig {
    /// Triplet budget per entity (paper default 100).
    pub per_entity: usize,
    /// Fraction of the remaining budget (after aliases) spent on
    /// syntactic perturbations; the rest goes to type-sharing positives.
    pub syntactic_share: f64,
    /// Families enabled (ablations disable individual heuristics).
    pub families: Vec<TripletFamily>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MiningConfig {
    fn default() -> Self {
        MiningConfig {
            per_entity: 100,
            syntactic_share: 0.8,
            families: vec![
                TripletFamily::Semantic,
                TripletFamily::Syntactic,
                TripletFamily::TypeSharing,
            ],
            seed: 0,
        }
    }
}

impl MiningConfig {
    /// Default families with a custom per-entity budget.
    pub fn with_budget(per_entity: usize, seed: u64) -> Self {
        MiningConfig { per_entity, seed, ..Default::default() }
    }
}

/// Mines triplets for every entity in the graph.
///
/// Follows the paper's scheme: all aliases first (the paper notes 95% of
/// entities have < 50 synonyms, so the alias set is usually enumerated
/// completely), then the remaining budget goes to syntactic perturbations
/// and type-sharing positives.
pub fn mine_triplets(kg: &KnowledgeGraph, config: &MiningConfig) -> Vec<Triplet> {
    let span = emblookup_obs::Span::enter(names::TRAIN_MINING)
        .field("entities", kg.num_entities() as u64)
        .field("budget_per_entity", config.per_entity as u64);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let injector = NoiseInjector::with_kinds(vec![
        NoiseKind::DropChar,
        NoiseKind::InsertChar,
        NoiseKind::SubstituteChar,
        NoiseKind::TransposeChars,
        NoiseKind::DuplicateChar,
        NoiseKind::SwapTokens,
        NoiseKind::Abbreviate,
    ]);
    let n = kg.num_entities();
    let mut out = Vec::with_capacity(n * config.per_entity);
    if n == 0 {
        return out;
    }
    let use_family = |f: TripletFamily| config.families.contains(&f);

    for e in kg.entities() {
        let anchor = &e.label;
        let mut budget = config.per_entity;
        let push = |out: &mut Vec<Triplet>,
                        rng: &mut StdRng,
                        positive: String,
                        budget: &mut usize| {
            if *budget == 0 || positive.is_empty() || positive == *anchor {
                return;
            }
            let negative = sample_negative(kg, e.id, &e.types, rng);
            out.push(Triplet {
                anchor: anchor.clone(),
                positive,
                negative,
            });
            *budget -= 1;
        };

        // 1. semantic: enumerate the alias set
        if use_family(TripletFamily::Semantic) {
            for alias in &e.aliases {
                push(&mut out, &mut rng, alias.clone(), &mut budget);
            }
        }

        // 2. syntactic perturbations of the label
        if use_family(TripletFamily::Syntactic) {
            let syntactic = ((budget as f64) * config.syntactic_share).round() as usize;
            for _ in 0..syntactic {
                // 1–2 stacked corruptions: the paper's error model drops or
                // inserts "one or more" letters
                let n = rng.gen_range(1..=2usize);
                let noisy = injector.corrupt_n(anchor, n, &mut rng);
                push(&mut out, &mut rng, noisy, &mut budget);
            }
        }

        // 3. type-sharing positives: a small, fixed share — they inject
        // type-level semantics but dilute entity-level retrieval if large
        if use_family(TripletFamily::TypeSharing) {
            let mut type_budget = (config.per_entity / 10).min(budget);
            if let Some(&t) = e.types.first() {
                let peers = kg.entities_of_type(t);
                let mut attempts = 0;
                while type_budget > 0 && peers.len() >= 2 && attempts < 50 {
                    attempts += 1;
                    let peer = peers[rng.gen_range(0..peers.len())];
                    if peer == e.id {
                        continue;
                    }
                    let before = budget;
                    push(&mut out, &mut rng, kg.label(peer).to_string(), &mut budget);
                    if budget < before {
                        type_budget -= 1;
                    }
                }
            }
        }

        // 4. spend any leftover budget cycling aliases again (the alias
        // signal is the scarcest and the most valuable for semantic lookup)
        if use_family(TripletFamily::Semantic) && !e.aliases.is_empty() {
            let mut i = 0;
            let mut guard = 0;
            while budget > 0 && guard < 4 * config.per_entity {
                guard += 1;
                let alias = e.aliases[i % e.aliases.len()].clone();
                i += 1;
                push(&mut out, &mut rng, alias, &mut budget);
            }
        }
    }
    out.shuffle(&mut rng);
    emblookup_obs::global().counter(names::MINING_TRIPLETS).add(out.len() as u64);
    drop(span.field("triplets", out.len() as u64));
    out
}

/// Label of a random entity other than `exclude`. With probability 0.6 the
/// negative is drawn from the anchor's own type: same-type entities share
/// naming morphology (suffixes, token structure), making them the hard
/// negatives the embedding must learn to separate. The rest are uniform.
fn sample_negative(
    kg: &KnowledgeGraph,
    exclude: EntityId,
    types: &[emblookup_kg::TypeId],
    rng: &mut StdRng,
) -> String {
    let n = kg.num_entities() as u32;
    if n <= 1 {
        return kg.label(exclude).to_string();
    }
    if rng.gen_bool(0.6) {
        if let Some(&t) = types.first() {
            let peers = kg.entities_of_type(t);
            if peers.len() >= 2 {
                for _ in 0..8 {
                    let id = peers[rng.gen_range(0..peers.len())];
                    if id != exclude {
                        return kg.label(id).to_string();
                    }
                }
            }
        }
    }
    loop {
        let id = EntityId(rng.gen_range(0..n));
        if id != exclude {
            return kg.label(id).to_string();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emblookup_kg::{generate, SynthKgConfig};
    use emblookup_text::distance::damerau_levenshtein;

    fn kg() -> emblookup_kg::KnowledgeGraph {
        generate(SynthKgConfig::tiny(3)).kg
    }

    #[test]
    fn budget_is_respected() {
        let kg = kg();
        let cfg = MiningConfig::with_budget(10, 0);
        let triplets = mine_triplets(&kg, &cfg);
        assert!(triplets.len() <= kg.num_entities() * 10);
        assert!(triplets.len() >= kg.num_entities() * 5, "{} too few", triplets.len());
    }

    #[test]
    fn aliases_appear_as_positives() {
        let kg = kg();
        let cfg = MiningConfig::with_budget(20, 0);
        let triplets = mine_triplets(&kg, &cfg);
        let e = kg.entities().next().unwrap();
        let alias = &e.aliases[0];
        assert!(
            triplets
                .iter()
                .any(|t| t.anchor == e.label && &t.positive == alias),
            "alias {alias} never mined for {}",
            e.label
        );
    }

    #[test]
    fn syntactic_positives_are_near_the_anchor() {
        let kg = kg();
        let cfg = MiningConfig {
            families: vec![TripletFamily::Syntactic],
            ..MiningConfig::with_budget(8, 1)
        };
        let triplets = mine_triplets(&kg, &cfg);
        assert!(!triplets.is_empty());
        let near = triplets
            .iter()
            .filter(|t| damerau_levenshtein(&t.anchor, &t.positive) <= 2
                || t.positive.chars().all(|c| c.is_ascii_uppercase()))
            .count();
        // the vast majority of single corruptions are within 2 edits
        // (token swaps can be further)
        assert!(
            near * 10 >= triplets.len() * 6,
            "only {near}/{} syntactic positives near anchor",
            triplets.len()
        );
    }

    #[test]
    fn negative_differs_from_anchor() {
        let kg = kg();
        let triplets = mine_triplets(&kg, &MiningConfig::with_budget(10, 2));
        let violations = triplets.iter().filter(|t| t.negative == t.anchor).count();
        // random negatives can collide with ambiguous labels, but must be rare
        assert!(violations * 50 < triplets.len(), "{violations} anchor==negative");
    }

    #[test]
    fn disabled_families_are_absent() {
        let kg = kg();
        let cfg = MiningConfig {
            families: vec![TripletFamily::Semantic],
            ..MiningConfig::with_budget(50, 3)
        };
        let triplets = mine_triplets(&kg, &cfg);
        // every positive must be a registered alias of the anchor entity
        for t in triplets.iter().take(200) {
            let owners = kg.find_exact(&t.anchor);
            let ok = owners.iter().any(|&id| {
                kg.aliases(id).iter().any(|a| a == &t.positive)
            });
            assert!(ok, "positive {:?} is not an alias of {:?}", t.positive, t.anchor);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let kg = kg();
        let a = mine_triplets(&kg, &MiningConfig::with_budget(10, 7));
        let b = mine_triplets(&kg, &MiningConfig::with_budget(10, 7));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_kg_mines_nothing() {
        let kg = emblookup_kg::KnowledgeGraph::new();
        assert!(mine_triplets(&kg, &MiningConfig::default()).is_empty());
    }
}

/// Seeded property tests: case `seed` draws its inputs from
/// `StdRng::seed_from_u64(seed)` and names the seed when it fails.
#[cfg(test)]
mod properties {
    use super::*;
    use emblookup_kg::synth::{generate as gen_kg, SynthKgConfig};

    fn cases() -> impl Iterator<Item = (u64, StdRng)> {
        (0..12).map(|seed| (seed, StdRng::seed_from_u64(seed)))
    }

    #[test]
    fn triplets_never_have_empty_fields() {
        for (seed, mut rng) in cases() {
            let (kg_seed, budget) = (rng.gen_range(0..50), rng.gen_range(1..20));
            let kg = gen_kg(SynthKgConfig::tiny(kg_seed)).kg;
            for t in mine_triplets(&kg, &MiningConfig::with_budget(budget, kg_seed)) {
                assert!(
                    !t.anchor.is_empty() && !t.positive.is_empty() && !t.negative.is_empty(),
                    "seed {seed}: {t:?}"
                );
                assert_ne!(t.anchor, t.positive, "seed {seed}");
            }
        }
    }

    #[test]
    fn budget_bounds_hold() {
        for (seed, mut rng) in cases() {
            let (kg_seed, budget) = (rng.gen_range(0..50), rng.gen_range(1..30));
            let kg = gen_kg(SynthKgConfig::tiny(kg_seed)).kg;
            let triplets = mine_triplets(&kg, &MiningConfig::with_budget(budget, kg_seed));
            assert!(
                triplets.len() <= kg.num_entities() * budget,
                "seed {seed}: {} triplets over budget {budget}",
                triplets.len()
            );
        }
    }

    #[test]
    fn anchors_are_entity_labels() {
        for (seed, mut rng) in cases() {
            let kg_seed = rng.gen_range(0..20);
            let kg = gen_kg(SynthKgConfig::tiny(kg_seed)).kg;
            for t in mine_triplets(&kg, &MiningConfig::with_budget(5, kg_seed)).iter().take(100) {
                let known = !kg.find_exact(&t.anchor).is_empty();
                assert!(known, "seed {seed}: anchor {:?} unknown", t.anchor);
            }
        }
    }
}
