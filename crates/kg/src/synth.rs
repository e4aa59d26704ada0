//! Synthetic knowledge-graph builders standing in for Wikidata and DBPedia.
//!
//! The generated graphs have the structural properties EmbLookup exploits:
//! typed entities with a primary label and several aliases from realistic
//! alias families, facts connecting related entities, and a configurable
//! share of deliberately ambiguous labels (multiple cities named "Berlin").

use crate::aliases::generate_aliases;
use crate::model::{EntityId, KnowledgeGraph, Object, PropertyId, TypeId};
use crate::names::{NameForge, NameKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Which real KG the synthetic graph imitates. The flavors differ in alias
/// richness and label style, mirroring that Wikidata has denser alias
/// coverage than DBPedia.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KgFlavor {
    /// Wikidata-like: more aliases per entity.
    Wikidata,
    /// DBPedia-like: fewer aliases, longer formal labels.
    DbPedia,
}

/// Configuration for [`generate`].
#[derive(Debug, Clone)]
pub struct SynthKgConfig {
    /// RNG seed; equal seeds give byte-identical graphs.
    pub seed: u64,
    /// Flavor to imitate.
    pub flavor: KgFlavor,
    /// Number of country entities.
    pub countries: usize,
    /// Number of city entities.
    pub cities: usize,
    /// Number of person entities.
    pub persons: usize,
    /// Number of organization entities.
    pub organizations: usize,
    /// Number of film entities.
    pub films: usize,
    /// Fraction of cities that reuse an existing city label (ambiguity).
    pub ambiguity_rate: f64,
    /// Mean number of aliases per entity (sampled 1..=2*mean-1).
    pub mean_aliases: usize,
}

impl SynthKgConfig {
    /// Tiny graph for unit tests (≈60 entities).
    pub fn tiny(seed: u64) -> Self {
        SynthKgConfig {
            seed,
            flavor: KgFlavor::Wikidata,
            countries: 5,
            cities: 20,
            persons: 20,
            organizations: 10,
            films: 5,
            ambiguity_rate: 0.05,
            mean_aliases: 3,
        }
    }

    /// Small graph for integration tests (≈600 entities).
    pub fn small(seed: u64) -> Self {
        SynthKgConfig {
            seed,
            flavor: KgFlavor::Wikidata,
            countries: 20,
            cities: 200,
            persons: 250,
            organizations: 80,
            films: 50,
            ambiguity_rate: 0.05,
            mean_aliases: 3,
        }
    }

    /// Benchmark-scale graph (≈4K entities), the default for the
    /// experiment harness.
    pub fn benchmark(seed: u64, flavor: KgFlavor) -> Self {
        SynthKgConfig {
            seed,
            flavor,
            countries: 60,
            cities: 1400,
            persons: 1400,
            organizations: 600,
            films: 400,
            ambiguity_rate: 0.04,
            mean_aliases: if matches!(flavor, KgFlavor::Wikidata) { 4 } else { 3 },
        }
    }

    /// Total entity count of the configuration.
    pub fn total_entities(&self) -> usize {
        self.countries + self.cities + self.persons + self.organizations + self.films
    }
}

/// Well-known type ids of a generated graph, in registration order.
#[derive(Debug, Clone, Copy)]
pub struct SynthTypes {
    /// Root type of places.
    pub place: TypeId,
    /// Country type (child of place).
    pub country: TypeId,
    /// City type (child of place).
    pub city: TypeId,
    /// Root type of agents.
    pub agent: TypeId,
    /// Person type (child of agent).
    pub person: TypeId,
    /// Organization type (child of agent).
    pub organization: TypeId,
    /// Creative-work type.
    pub work: TypeId,
    /// Film type (child of work).
    pub film: TypeId,
}

/// Well-known property ids of a generated graph.
#[derive(Debug, Clone, Copy)]
pub struct SynthProps {
    /// city → country
    pub capital_of: PropertyId,
    /// city → country
    pub located_in: PropertyId,
    /// person → country
    pub citizen_of: PropertyId,
    /// person → city
    pub born_in: PropertyId,
    /// person → organization
    pub works_for: PropertyId,
    /// organization → city
    pub headquartered_in: PropertyId,
    /// film → person
    pub directed_by: PropertyId,
    /// film → city
    pub set_in: PropertyId,
    /// any → literal year
    pub inception: PropertyId,
}

/// A generated graph together with its category bookkeeping, which the
/// table generators downstream use for ground truth.
pub struct SynthKg {
    /// The knowledge graph.
    pub kg: KnowledgeGraph,
    /// Type handles.
    pub types: SynthTypes,
    /// Property handles.
    pub props: SynthProps,
    /// Entities by category, in generation order.
    pub countries: Vec<EntityId>,
    /// City entities.
    pub cities: Vec<EntityId>,
    /// Person entities.
    pub persons: Vec<EntityId>,
    /// Organization entities.
    pub organizations: Vec<EntityId>,
    /// Film entities.
    pub films: Vec<EntityId>,
    /// Configuration used.
    pub config: SynthKgConfig,
}

/// Generates a synthetic knowledge graph from the configuration.
///
/// Determinism: the same config yields the same graph, entity by entity.
///
/// ```
/// use emblookup_kg::{generate, SynthKgConfig};
/// let synth = generate(SynthKgConfig::tiny(42));
/// assert_eq!(synth.kg.num_entities(), SynthKgConfig::tiny(42).total_entities());
/// let entity = synth.kg.entities().next().unwrap();
/// assert!(!entity.aliases.is_empty());
/// ```
pub fn generate(config: SynthKgConfig) -> SynthKg {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut forge = NameForge::new();
    let mut kg = KnowledgeGraph::new();

    let place = kg.add_type("place", None);
    let country = kg.add_type("country", Some(place));
    let city = kg.add_type("city", Some(place));
    let agent = kg.add_type("agent", None);
    let person = kg.add_type("person", Some(agent));
    let organization = kg.add_type("organization", Some(agent));
    let work = kg.add_type("creative work", None);
    let film = kg.add_type("film", Some(work));
    let types = SynthTypes {
        place,
        country,
        city,
        agent,
        person,
        organization,
        work,
        film,
    };

    let props = SynthProps {
        capital_of: kg.add_property("capital of"),
        located_in: kg.add_property("located in"),
        citizen_of: kg.add_property("citizen of"),
        born_in: kg.add_property("born in"),
        works_for: kg.add_property("works for"),
        headquartered_in: kg.add_property("headquartered in"),
        directed_by: kg.add_property("directed by"),
        set_in: kg.add_property("set in"),
        inception: kg.add_property("inception"),
    };

    let alias_budget = |rng: &mut StdRng, cfg: &SynthKgConfig| -> usize {
        if cfg.mean_aliases == 0 {
            0
        } else {
            rng.gen_range(1..=2 * cfg.mean_aliases - 1)
        }
    };

    let add_entities = |kg: &mut KnowledgeGraph,
                            rng: &mut StdRng,
                            forge: &mut NameForge,
                            kind: NameKind,
                            type_id: TypeId,
                            count: usize,
                            ambiguous: bool|
     -> Vec<EntityId> {
        let mut out = Vec::with_capacity(count);
        let mut labels: Vec<String> = Vec::new();
        for i in 0..count {
            let label = if ambiguous
                && i > 10
                && rng.gen_bool(config.ambiguity_rate)
            {
                labels.choose(rng).cloned().unwrap_or_else(|| forge.next(kind, rng))
            } else {
                forge.next(kind, rng)
            };
            let budget = alias_budget(rng, &config);
            let aliases = generate_aliases(&label, kind, budget, forge, rng);
            labels.push(label.clone());
            out.push(kg.add_entity(label, aliases, vec![type_id]));
        }
        out
    };

    let countries = add_entities(
        &mut kg, &mut rng, &mut forge, NameKind::Country, country, config.countries, false,
    );
    let cities = add_entities(
        &mut kg, &mut rng, &mut forge, NameKind::City, city, config.cities, true,
    );
    let persons = add_entities(
        &mut kg, &mut rng, &mut forge, NameKind::Person, person, config.persons, false,
    );
    let organizations = add_entities(
        &mut kg, &mut rng, &mut forge, NameKind::Organization, organization,
        config.organizations, false,
    );
    let films = add_entities(
        &mut kg, &mut rng, &mut forge, NameKind::Film, film, config.films, false,
    );

    // --- facts ---
    if !countries.is_empty() {
        for (i, &c) in cities.iter().enumerate() {
            let home = countries[rng.gen_range(0..countries.len())];
            kg.add_fact(c, props.located_in, Object::Entity(home));
            // one capital per country: the first city assigned to it
            if i < countries.len() {
                kg.add_fact(c, props.capital_of, Object::Entity(countries[i]));
            }
        }
    }
    for &p in &persons {
        if !countries.is_empty() {
            let home = countries[rng.gen_range(0..countries.len())];
            kg.add_fact(p, props.citizen_of, Object::Entity(home));
        }
        if !cities.is_empty() {
            let birth = cities[rng.gen_range(0..cities.len())];
            kg.add_fact(p, props.born_in, Object::Entity(birth));
        }
        if !organizations.is_empty() && rng.gen_bool(0.7) {
            let employer = organizations[rng.gen_range(0..organizations.len())];
            kg.add_fact(p, props.works_for, Object::Entity(employer));
        }
    }
    for &o in &organizations {
        if !cities.is_empty() {
            let hq = cities[rng.gen_range(0..cities.len())];
            kg.add_fact(o, props.headquartered_in, Object::Entity(hq));
        }
        let year = rng.gen_range(1850..2020);
        kg.add_fact(o, props.inception, Object::Literal(year.to_string()));
    }
    for &f in &films {
        if !persons.is_empty() {
            let director = persons[rng.gen_range(0..persons.len())];
            kg.add_fact(f, props.directed_by, Object::Entity(director));
        }
        if !cities.is_empty() && rng.gen_bool(0.5) {
            let loc = cities[rng.gen_range(0..cities.len())];
            kg.add_fact(f, props.set_in, Object::Entity(loc));
        }
        let year = rng.gen_range(1930..2022);
        kg.add_fact(f, props.inception, Object::Literal(year.to_string()));
    }

    SynthKg {
        kg,
        types,
        props,
        countries,
        cities,
        persons,
        organizations,
        films,
        config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(SynthKgConfig::tiny(9));
        let b = generate(SynthKgConfig::tiny(9));
        assert_eq!(a.kg.num_entities(), b.kg.num_entities());
        for (ea, eb) in a.kg.entities().zip(b.kg.entities()) {
            assert_eq!(ea.label, eb.label);
            assert_eq!(ea.aliases, eb.aliases);
        }
    }

    #[test]
    fn entity_counts_match_config() {
        let cfg = SynthKgConfig::tiny(1);
        let total = cfg.total_entities();
        let s = generate(cfg);
        assert_eq!(s.kg.num_entities(), total);
        assert_eq!(s.countries.len(), 5);
        assert_eq!(s.cities.len(), 20);
    }

    #[test]
    fn every_entity_has_aliases() {
        let s = generate(SynthKgConfig::tiny(2));
        for e in s.kg.entities() {
            assert!(!e.aliases.is_empty(), "{} has no aliases", e.label);
            assert!(e.aliases.iter().all(|a| a != &e.label));
        }
    }

    #[test]
    fn cities_are_located_somewhere() {
        let s = generate(SynthKgConfig::tiny(3));
        for &c in &s.cities {
            let located = s
                .kg
                .facts_of(c)
                .any(|f| f.property == s.props.located_in);
            assert!(located, "{} has no located_in fact", s.kg.label(c));
        }
    }

    #[test]
    fn type_hierarchy_reaches_roots() {
        let s = generate(SynthKgConfig::tiny(4));
        assert!(s.kg.type_is_a(s.types.city, s.types.place));
        assert!(s.kg.type_is_a(s.types.person, s.types.agent));
        assert!(!s.kg.type_is_a(s.types.city, s.types.agent));
    }

    #[test]
    fn ambiguity_produces_shared_labels() {
        let mut cfg = SynthKgConfig::small(5);
        cfg.ambiguity_rate = 0.3;
        let s = generate(cfg);
        let mut any_shared = false;
        for &c in &s.cities {
            if s.kg.find_exact(s.kg.label(c)).len() > 1 {
                any_shared = true;
                break;
            }
        }
        assert!(any_shared, "no shared city labels at 30% ambiguity");
    }

    #[test]
    fn benchmark_config_scales() {
        let cfg = SynthKgConfig::benchmark(7, KgFlavor::DbPedia);
        assert!(cfg.total_entities() > 3000);
        assert_eq!(cfg.mean_aliases, 3);
        let w = SynthKgConfig::benchmark(7, KgFlavor::Wikidata);
        assert_eq!(w.mean_aliases, 4);
    }
}
