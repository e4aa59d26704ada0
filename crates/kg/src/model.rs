//! In-memory knowledge graph: entities, types, properties and facts,
//! following the paper's formalization `⟨E, T, P, F⟩` (§II).

use std::collections::HashMap;

/// Identifier of an entity in `E` (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntityId(pub u32);

/// Identifier of a type in `T`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TypeId(pub u32);

/// Identifier of a property in `P`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PropertyId(pub u32);

// Written out rather than derived: a derived `PartialOrd` calls
// `partial_cmp` on the field, which clippy.toml disallows workspace-wide,
// and clippy wants `Ord` written beside a hand-written `PartialOrd`.
macro_rules! order_by_id {
    ($($id:ty),*) => {$(
        impl Ord for $id {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.cmp(&other.0)
            }
        }

        impl PartialOrd for $id {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
    )*};
}
order_by_id!(EntityId, TypeId, PropertyId);

/// Object position of a fact: another entity or a literal string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Object {
    /// Entity-valued object.
    Entity(EntityId),
    /// Literal-valued object (numbers are stored as strings too).
    Literal(String),
}

/// A fact `⟨s, p, o⟩ ∈ F`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fact {
    /// Subject entity.
    pub subject: EntityId,
    /// Property.
    pub property: PropertyId,
    /// Object entity or literal.
    pub object: Object,
}

/// An entity with its primary label, aliases (`skos:altLabel` analogues)
/// and type memberships.
#[derive(Debug, Clone)]
pub struct Entity {
    /// Dense identifier.
    pub id: EntityId,
    /// Primary label (`rdfs:label` analogue); embeddings are computed on it.
    pub label: String,
    /// Alternative labels: abbreviations, translations, historical names.
    pub aliases: Vec<String>,
    /// Types this entity belongs to.
    pub types: Vec<TypeId>,
}

/// The knowledge graph `⟨E, T, P, F⟩` with the lookup-oriented indexes the
/// reproduction needs: label → entities, type → entities, subject → facts.
#[derive(Debug, Default, Clone)]
pub struct KnowledgeGraph {
    entities: Vec<Entity>,
    type_names: Vec<String>,
    /// Parent type for each type (CTA's "most specific type" needs a
    /// hierarchy); roots point to themselves.
    type_parents: Vec<TypeId>,
    property_names: Vec<String>,
    facts: Vec<Fact>,
    // --- indexes ---
    label_index: HashMap<String, Vec<EntityId>>,
    type_index: HashMap<TypeId, Vec<EntityId>>,
    subject_index: HashMap<EntityId, Vec<usize>>,
    object_index: HashMap<EntityId, Vec<usize>>,
}

impl KnowledgeGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a type under `name` with an optional parent; returns its id.
    pub fn add_type(&mut self, name: impl Into<String>, parent: Option<TypeId>) -> TypeId {
        let id = TypeId(self.type_names.len() as u32);
        self.type_names.push(name.into());
        self.type_parents.push(parent.unwrap_or(id));
        id
    }

    /// Registers a property under `name`; returns its id.
    pub fn add_property(&mut self, name: impl Into<String>) -> PropertyId {
        let id = PropertyId(self.property_names.len() as u32);
        self.property_names.push(name.into());
        id
    }

    /// Adds an entity with its label, aliases and types; returns its id.
    pub fn add_entity(
        &mut self,
        label: impl Into<String>,
        aliases: Vec<String>,
        types: Vec<TypeId>,
    ) -> EntityId {
        let id = EntityId(self.entities.len() as u32);
        let label = label.into();
        self.label_index
            .entry(normalize_key(&label))
            .or_default()
            .push(id);
        for alias in &aliases {
            self.label_index
                .entry(normalize_key(alias))
                .or_default()
                .push(id);
        }
        for &t in &types {
            self.type_index.entry(t).or_default().push(id);
        }
        self.entities.push(Entity { id, label, aliases, types });
        id
    }

    /// Adds a fact to `F`, updating the subject/object indexes.
    ///
    /// # Panics
    /// Panics if the subject (or entity object) id is out of range.
    pub fn add_fact(&mut self, subject: EntityId, property: PropertyId, object: Object) {
        assert!(
            (subject.0 as usize) < self.entities.len(),
            "fact subject {subject:?} out of range"
        );
        let idx = self.facts.len();
        self.subject_index.entry(subject).or_default().push(idx);
        if let Object::Entity(o) = object {
            assert!(
                (o.0 as usize) < self.entities.len(),
                "fact object {o:?} out of range"
            );
            self.object_index.entry(o).or_default().push(idx);
        }
        self.facts.push(Fact { subject, property, object });
    }

    /// Number of entities.
    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    /// Number of types.
    pub fn num_types(&self) -> usize {
        self.type_names.len()
    }

    /// Number of properties.
    pub fn num_properties(&self) -> usize {
        self.property_names.len()
    }

    /// Number of facts.
    pub fn num_facts(&self) -> usize {
        self.facts.len()
    }

    /// Borrows an entity.
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    pub fn entity(&self, id: EntityId) -> &Entity {
        &self.entities[id.0 as usize]
    }

    /// Primary label of an entity.
    pub fn label(&self, id: EntityId) -> &str {
        &self.entity(id).label
    }

    /// Aliases of an entity.
    pub fn aliases(&self, id: EntityId) -> &[String] {
        &self.entity(id).aliases
    }

    /// Iterates over all entities in id order.
    pub fn entities(&self) -> impl Iterator<Item = &Entity> {
        self.entities.iter()
    }

    /// Type name for a type id.
    pub fn type_name(&self, id: TypeId) -> &str {
        &self.type_names[id.0 as usize]
    }

    /// Parent of a type (roots return themselves).
    pub(crate) fn type_parent(&self, id: TypeId) -> TypeId {
        self.type_parents[id.0 as usize]
    }

    /// Rewrites a type's parent (used by deserialization, which cannot
    /// forward-reference parents during construction).
    ///
    /// # Panics
    /// Panics if either id is out of range.
    pub(crate) fn set_type_parent(&mut self, id: TypeId, parent: TypeId) {
        assert!((parent.0 as usize) < self.type_parents.len(), "parent out of range");
        self.type_parents[id.0 as usize] = parent;
    }

    /// True when `ancestor` is `t` or a transitive parent of `t`.
    #[cfg(test)]
    pub(crate) fn type_is_a(&self, t: TypeId, ancestor: TypeId) -> bool {
        let mut cur = t;
        loop {
            if cur == ancestor {
                return true;
            }
            let p = self.type_parent(cur);
            if p == cur {
                return false;
            }
            cur = p;
        }
    }

    /// Property name for a property id.
    pub fn property_name(&self, id: PropertyId) -> &str {
        &self.property_names[id.0 as usize]
    }

    /// Entities whose label or alias exactly matches `mention`
    /// (case/whitespace normalized). Empty when unknown.
    pub fn find_exact(&self, mention: &str) -> &[EntityId] {
        self.label_index
            .get(&normalize_key(mention))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All entities of a type (direct membership, not transitive).
    pub fn entities_of_type(&self, t: TypeId) -> &[EntityId] {
        self.type_index.get(&t).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Facts with `id` in subject position.
    pub fn facts_of(&self, id: EntityId) -> impl Iterator<Item = &Fact> {
        self.subject_index
            .get(&id)
            .into_iter()
            .flatten()
            .map(move |&i| &self.facts[i])
    }

    /// Facts with `id` in object position.
    pub fn facts_about(&self, id: EntityId) -> impl Iterator<Item = &Fact> {
        self.object_index
            .get(&id)
            .into_iter()
            .flatten()
            .map(move |&i| &self.facts[i])
    }

    /// Entity neighbours through any property, in both directions.
    pub fn neighbors(&self, id: EntityId) -> Vec<EntityId> {
        let mut out = Vec::new();
        for f in self.facts_of(id) {
            if let Object::Entity(o) = f.object {
                out.push(o);
            }
        }
        for f in self.facts_about(id) {
            out.push(f.subject);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// True when a fact `⟨a, p, b⟩` exists for any `p`.
    pub fn connected(&self, a: EntityId, b: EntityId) -> bool {
        self.facts_of(a)
            .any(|f| matches!(f.object, Object::Entity(o) if o == b))
    }

    /// All facts, in insertion order.
    pub fn facts(&self) -> &[Fact] {
        &self.facts
    }
}

/// Normalization applied to labels before exact-match indexing.
fn normalize_key(s: &str) -> String {
    emblookup_text::tokenize::normalize(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_kg() -> (KnowledgeGraph, EntityId, EntityId, EntityId) {
        let mut kg = KnowledgeGraph::new();
        let place = kg.add_type("place", None);
        let country = kg.add_type("country", Some(place));
        let city = kg.add_type("city", Some(place));
        let capital_of = kg.add_property("capital of");
        let germany = kg.add_entity(
            "Germany",
            vec!["Deutschland".into(), "FRG".into()],
            vec![country],
        );
        let berlin = kg.add_entity("Berlin", vec![], vec![city]);
        let paris = kg.add_entity("Paris", vec![], vec![city]);
        kg.add_fact(berlin, capital_of, Object::Entity(germany));
        (kg, germany, berlin, paris)
    }

    #[test]
    fn exact_lookup_by_label_and_alias() {
        let (kg, germany, ..) = tiny_kg();
        assert_eq!(kg.find_exact("Germany"), &[germany]);
        assert_eq!(kg.find_exact("germany"), &[germany]); // case folded
        assert_eq!(kg.find_exact("Deutschland"), &[germany]); // alias
        assert!(kg.find_exact("Atlantis").is_empty());
    }

    #[test]
    fn type_hierarchy() {
        let (kg, germany, ..) = tiny_kg();
        let country = kg.entity(germany).types[0];
        let place = kg.type_parent(country);
        assert!(kg.type_is_a(country, place));
        assert!(!kg.type_is_a(place, country));
        assert_eq!(kg.type_name(country), "country");
    }

    #[test]
    fn facts_and_neighbors() {
        let (kg, germany, berlin, paris) = tiny_kg();
        assert!(kg.connected(berlin, germany));
        assert!(!kg.connected(paris, germany));
        assert_eq!(kg.neighbors(germany), vec![berlin]);
        assert_eq!(kg.neighbors(berlin), vec![germany]);
        assert_eq!(kg.facts_of(berlin).count(), 1);
        assert_eq!(kg.facts_about(germany).count(), 1);
    }

    #[test]
    fn entities_of_type_lists_members() {
        let (kg, _, berlin, paris) = tiny_kg();
        let city = kg.entity(berlin).types[0];
        assert_eq!(kg.entities_of_type(city), &[berlin, paris]);
    }

    #[test]
    fn ambiguous_labels_map_to_all_owners() {
        let mut kg = KnowledgeGraph::new();
        let city = kg.add_type("city", None);
        let b1 = kg.add_entity("Berlin", vec![], vec![city]);
        let b2 = kg.add_entity("Berlin", vec![], vec![city]); // Berlin, USA
        assert_eq!(kg.find_exact("berlin"), &[b1, b2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fact_with_bad_subject_panics() {
        let mut kg = KnowledgeGraph::new();
        let p = kg.add_property("p");
        kg.add_fact(EntityId(9), p, Object::Literal("x".into()));
    }

    #[test]
    fn counts() {
        let (kg, ..) = tiny_kg();
        assert_eq!(kg.num_entities(), 3);
        assert_eq!(kg.num_types(), 3);
        assert_eq!(kg.num_properties(), 1);
        assert_eq!(kg.num_facts(), 1);
    }
}
