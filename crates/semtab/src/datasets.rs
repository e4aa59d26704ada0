//! Synthetic benchmark datasets mirroring ST-Wikidata (SemTab 2020),
//! ST-DBPedia (SemTab 2019) and Tough Tables.
//!
//! Tables are sampled from a synthetic KG so that ground truth is exact:
//! a table's subject column holds entities of one type; further columns
//! hold fact-related entities (a city's country, a person's employer) and
//! literals. Dataset variants inject noise into 10% of cells (the paper's
//! *error* variant) or substitute aliases (the semantic-lookup variant).

use crate::table::{Cell, Table};
use emblookup_kg::synth::SynthKg;
use emblookup_kg::{EntityId, Object, PropertyId};
use emblookup_text::{NoiseInjector, NoiseKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A generated benchmark dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Display name ("ST-Wikidata", …).
    pub name: String,
    /// The tables.
    pub tables: Vec<Table>,
}

impl Dataset {
    /// Total annotatable entity cells across tables (the paper's
    /// "#Cells to annotate" row of Table I).
    pub fn num_entity_cells(&self) -> usize {
        self.tables.iter().map(Table::num_entity_cells).sum()
    }

    /// Mean rows per table.
    pub fn avg_rows(&self) -> f64 {
        if self.tables.is_empty() {
            return 0.0;
        }
        self.tables.iter().map(|t| t.num_rows() as f64).sum::<f64>() / self.tables.len() as f64
    }

    /// Mean columns per table.
    pub fn avg_cols(&self) -> f64 {
        if self.tables.is_empty() {
            return 0.0;
        }
        self.tables.iter().map(|t| t.num_cols() as f64).sum::<f64>() / self.tables.len() as f64
    }
}

/// Configuration for dataset generation.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Number of tables.
    pub tables: usize,
    /// Row-count range per table.
    pub rows: (usize, usize),
    /// RNG seed.
    pub seed: u64,
    /// Dataset display name.
    pub name: String,
}

impl DatasetConfig {
    /// Small config for tests.
    pub fn tiny(seed: u64) -> Self {
        DatasetConfig { tables: 4, rows: (3, 6), seed, name: "tiny".into() }
    }

    /// ST-Wikidata-analogue scale: many small tables (the real dataset
    /// averages 6.6 rows over 109K tables; we scale the count down).
    pub fn st_wikidata(seed: u64) -> Self {
        DatasetConfig { tables: 120, rows: (4, 9), seed, name: "ST-Wikidata".into() }
    }

    /// ST-DBPedia-analogue scale: fewer, longer tables (26.2 avg rows).
    pub fn st_dbpedia(seed: u64) -> Self {
        DatasetConfig { tables: 40, rows: (18, 34), seed, name: "ST-DBPedia".into() }
    }

    /// Tough-Tables analogue: few, very large, deliberately noisy tables.
    pub fn tough_tables(seed: u64) -> Self {
        DatasetConfig { tables: 8, rows: (60, 120), seed, name: "Tough Tables".into() }
    }
}

/// Generates a clean dataset over the synthetic KG.
pub fn generate_dataset(synth: &SynthKg, config: &DatasetConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut tables = Vec::with_capacity(config.tables);
    for id in 0..config.tables {
        tables.push(generate_table(synth, id as u32, &mut rng, config));
    }
    Dataset { name: config.name.clone(), tables }
}

/// Table templates: (subject pool chooser, related columns).
fn generate_table(synth: &SynthKg, id: u32, rng: &mut StdRng, config: &DatasetConfig) -> Table {
    let kg = &synth.kg;
    let n_rows = rng.gen_range(config.rows.0..=config.rows.1);
    // template: subject type and the property used for the related column;
    // template 3 is a wide person table with two related entity columns
    let template = rng.gen_range(0..4usize);
    if template == 3 {
        return generate_person_table(synth, id, rng, n_rows);
    }
    let (pool, subject_type, rel_prop, rel_type): (&[EntityId], _, PropertyId, _) = match template {
        0 => (
            &synth.cities,
            synth.types.city,
            synth.props.located_in,
            synth.types.country,
        ),
        1 => (
            &synth.persons,
            synth.types.person,
            synth.props.born_in,
            synth.types.city,
        ),
        _ => (
            &synth.organizations,
            synth.types.organization,
            synth.props.headquartered_in,
            synth.types.city,
        ),
    };
    let mut rows = Vec::with_capacity(n_rows);
    let mut chosen: Vec<EntityId> = pool.to_vec();
    chosen.shuffle(rng);
    chosen.truncate(n_rows);
    for &subject in &chosen {
        let related = kg
            .facts_of(subject)
            .find(|f| f.property == rel_prop)
            .and_then(|f| match f.object {
                Object::Entity(o) => Some(o),
                Object::Literal(_) => None,
            });
        let mut row = vec![Cell::entity(kg.label(subject), subject)];
        match related {
            Some(o) => row.push(Cell::entity(kg.label(o), o)),
            None => row.push(Cell::literal("-")),
        }
        // a literal column keeps the table realistic
        row.push(Cell::literal(format!("{}", rng.gen_range(1000..999999))));
        rows.push(row);
    }
    Table {
        id,
        rows,
        col_types: vec![Some(subject_type), Some(rel_type), None],
    }
}

/// Wide person table: person | birth city | employer | literal year.
/// Two related entity columns make row-context disambiguation matter.
fn generate_person_table(synth: &SynthKg, id: u32, rng: &mut StdRng, n_rows: usize) -> Table {
    let kg = &synth.kg;
    let mut chosen: Vec<EntityId> = synth.persons.clone();
    chosen.shuffle(rng);
    chosen.truncate(n_rows);
    let mut rows = Vec::with_capacity(chosen.len());
    for &person in &chosen {
        let related = |prop: PropertyId| -> Option<EntityId> {
            kg.facts_of(person).find(|f| f.property == prop).and_then(|f| match f.object {
                Object::Entity(o) => Some(o),
                Object::Literal(_) => None,
            })
        };
        let mut row = vec![Cell::entity(kg.label(person), person)];
        match related(synth.props.born_in) {
            Some(o) => row.push(Cell::entity(kg.label(o), o)),
            None => row.push(Cell::literal("-")),
        }
        match related(synth.props.works_for) {
            Some(o) => row.push(Cell::entity(kg.label(o), o)),
            None => row.push(Cell::literal("-")),
        }
        row.push(Cell::literal(format!("{}", rng.gen_range(1900..2020))));
        rows.push(row);
    }
    Table {
        id,
        rows,
        col_types: vec![
            Some(synth.types.person),
            Some(synth.types.city),
            Some(synth.types.organization),
            None,
        ],
    }
}

/// Returns a copy of `dataset` with `fraction` of the entity cells
/// corrupted by the paper's misspelling families (§IV-B).
pub fn with_noise(dataset: &Dataset, fraction: f64, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let injector = NoiseInjector::with_kinds(vec![
        NoiseKind::DropChar,
        NoiseKind::InsertChar,
        NoiseKind::SubstituteChar,
        NoiseKind::TransposeChars,
        NoiseKind::SwapTokens,
        NoiseKind::Abbreviate,
    ]);
    let mut out = dataset.clone();
    for table in &mut out.tables {
        for row in &mut table.rows {
            for cell in row.iter_mut() {
                if cell.truth.is_some() && !cell.missing && rng.gen_bool(fraction) {
                    cell.text = injector.corrupt(&cell.text, &mut rng);
                }
            }
        }
    }
    out
}

/// Returns a copy of `dataset` where every entity cell's text is replaced
/// by a uniformly chosen alias of its ground-truth entity (the semantic
/// lookup variant of §IV-D). Entities without aliases keep their label.
pub fn with_alias_substitution(dataset: &Dataset, synth: &SynthKg, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = dataset.clone();
    for table in &mut out.tables {
        for row in &mut table.rows {
            for cell in row.iter_mut() {
                let Some(truth) = cell.truth else { continue };
                if cell.missing {
                    continue;
                }
                let aliases = synth.kg.aliases(truth);
                if !aliases.is_empty() {
                    cell.text = aliases[rng.gen_range(0..aliases.len())].clone();
                }
            }
        }
    }
    out
}

/// Returns a copy of `dataset` with `fraction` of present entity cells
/// blanked out — the data-repair (Katara) workload, which the paper builds
/// by replacing 10% of cells with missing values.
pub fn with_missing(dataset: &Dataset, fraction: f64, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = dataset.clone();
    for table in &mut out.tables {
        for row in &mut table.rows {
            for cell in row.iter_mut() {
                if cell.truth.is_some() && !cell.missing && rng.gen_bool(fraction) {
                    cell.missing = true;
                    cell.text = String::new();
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use emblookup_kg::{generate, SynthKgConfig};

    fn synth() -> SynthKg {
        generate(SynthKgConfig::small(20))
    }

    #[test]
    fn tables_are_well_formed_with_truth() {
        let s = synth();
        let ds = generate_dataset(&s, &DatasetConfig::tiny(1));
        assert_eq!(ds.tables.len(), 4);
        for t in &ds.tables {
            t.validate().unwrap();
            for (_, _, cell) in t.entity_cells() {
                let truth = cell.truth.unwrap();
                // text matches the label of the ground-truth entity
                assert_eq!(cell.text, s.kg.label(truth));
            }
        }
        assert!(ds.num_entity_cells() > 0);
    }

    #[test]
    fn subject_column_type_matches_members() {
        let s = synth();
        let ds = generate_dataset(&s, &DatasetConfig::tiny(2));
        for t in &ds.tables {
            let subject_type = t.col_types[0].unwrap();
            for row in &t.rows {
                let truth = row[0].truth.unwrap();
                assert!(s.kg.entity(truth).types.contains(&subject_type));
            }
        }
    }

    #[test]
    fn noise_changes_about_the_right_fraction() {
        let s = synth();
        let clean = generate_dataset(&s, &DatasetConfig::st_wikidata(3));
        let noisy = with_noise(&clean, 0.3, 3);
        let mut changed = 0;
        let mut total = 0;
        for (tc, tn) in clean.tables.iter().zip(&noisy.tables) {
            for (rc, rn) in tc.rows.iter().zip(&tn.rows) {
                for (cc, cn) in rc.iter().zip(rn) {
                    if cc.truth.is_some() {
                        total += 1;
                        if cc.text != cn.text {
                            changed += 1;
                        }
                    }
                }
            }
        }
        let rate = changed as f64 / total as f64;
        assert!((0.2..0.4).contains(&rate), "noise rate {rate}");
    }

    #[test]
    fn alias_substitution_preserves_truth() {
        let s = synth();
        let clean = generate_dataset(&s, &DatasetConfig::tiny(4));
        let aliased = with_alias_substitution(&clean, &s, 4);
        let mut substituted = 0;
        for (tc, ta) in clean.tables.iter().zip(&aliased.tables) {
            for (rc, ra) in tc.rows.iter().zip(&ta.rows) {
                for (cc, ca) in rc.iter().zip(ra) {
                    assert_eq!(cc.truth, ca.truth);
                    if let Some(truth) = cc.truth {
                        if cc.text != ca.text {
                            substituted += 1;
                            // substituted text must be a registered alias
                            assert!(s.kg.aliases(truth).contains(&ca.text));
                        }
                    }
                }
            }
        }
        assert!(substituted > 0, "no aliases substituted");
    }

    #[test]
    fn missing_marks_cells() {
        let s = synth();
        let clean = generate_dataset(&s, &DatasetConfig::tiny(5));
        let broken = with_missing(&clean, 0.5, 5);
        let missing: usize = broken
            .tables
            .iter()
            .flat_map(|t| t.rows.iter())
            .flatten()
            .filter(|c| c.missing)
            .count();
        assert!(missing > 0);
        // entity_cells skips missing ones
        assert!(broken.num_entity_cells() < clean.num_entity_cells());
    }

    #[test]
    fn scale_presets_have_expected_shape() {
        let s = synth();
        let wd = generate_dataset(&s, &DatasetConfig::st_wikidata(6));
        let db = generate_dataset(&s, &DatasetConfig::st_dbpedia(6));
        let tt = generate_dataset(&s, &DatasetConfig::tough_tables(6));
        assert!(wd.tables.len() > db.tables.len());
        assert!(db.avg_rows() > wd.avg_rows());
        assert!(tt.avg_rows() > db.avg_rows());
    }

    #[test]
    fn deterministic_given_seed() {
        let s = synth();
        let a = generate_dataset(&s, &DatasetConfig::tiny(9));
        let b = generate_dataset(&s, &DatasetConfig::tiny(9));
        assert_eq!(a.tables[0].rows[0][0].text, b.tables[0].rows[0][0].text);
    }
}

/// Seeded property tests: case `seed` draws its inputs from
/// `StdRng::seed_from_u64(seed)` and names the seed when it fails.
#[cfg(test)]
mod properties {
    use super::*;
    use emblookup_kg::generate as gen_kg;
    use emblookup_kg::SynthKgConfig;

    /// Per case: the case's seed, its RNG, and a tiny graph and dataset
    /// generated from a seed drawn below `max_seed`.
    fn cases(max_seed: u64) -> impl Iterator<Item = (u64, StdRng, SynthKg, Dataset)> {
        (0..8).map(move |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let data_seed = rng.gen_range(0..max_seed);
            let synth = gen_kg(SynthKgConfig::tiny(data_seed));
            let ds = generate_dataset(&synth, &DatasetConfig::tiny(data_seed));
            (seed, rng, synth, ds)
        })
    }

    #[test]
    fn generated_tables_are_rectangular_with_valid_truth() {
        for (seed, _, synth, ds) in cases(40) {
            for t in &ds.tables {
                assert!(t.validate().is_ok(), "seed {seed}: {:?}", t.validate());
                for (_, _, cell) in t.entity_cells() {
                    let truth = cell.truth.unwrap_or_else(|| panic!("seed {seed}: cell without truth"));
                    assert!((truth.0 as usize) < synth.kg.num_entities(), "seed {seed}: {truth:?}");
                }
            }
        }
    }

    #[test]
    fn noise_preserves_truth_and_shape() {
        for (seed, mut rng, _, ds) in cases(40) {
            let noisy = with_noise(&ds, rng.gen_range(0.0..1.0), seed);
            assert_eq!(ds.tables.len(), noisy.tables.len(), "seed {seed}");
            for (a, b) in ds.tables.iter().zip(&noisy.tables) {
                assert_eq!(a.num_rows(), b.num_rows(), "seed {seed}");
                for (ca, cb) in a.rows.iter().flatten().zip(b.rows.iter().flatten()) {
                    assert_eq!(ca.truth, cb.truth, "seed {seed}");
                    assert_eq!(ca.missing, cb.missing, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn missing_fraction_is_monotone() {
        let count = |d: &Dataset| {
            d.tables.iter().flat_map(|t| t.rows.iter().flatten()).filter(|c| c.missing).count()
        };
        for (seed, _, _, ds) in cases(20) {
            let low = count(&with_missing(&ds, 0.1, seed));
            let high = count(&with_missing(&ds, 0.9, seed));
            assert!(high >= low, "seed {seed}: {high} missing at 0.9 < {low} at 0.1");
        }
    }
}
