//! Reimplementations of the five systems whose lookup component the paper
//! replaces with EmbLookup: bbw, MantisTable and JenTab (semantic table
//! annotation), DoSeR (entity disambiguation) and Katara (data repair).
//!
//! Each system is faithful at the level the paper manipulates: they share
//! the candidate-generation step (a pluggable [`LookupService`]) and differ
//! in their post-processing strategy, mirroring the published systems'
//! designs. Lookup time is accounted separately from post-processing so
//! the speedup tables can report the lookup fraction exactly.

use crate::table::Table;
use emblookup_kg::{Candidate, EntityId, KnowledgeGraph, LookupService, TypeId};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Per-table annotation output.
#[derive(Debug, Clone)]
pub struct TableAnnotation {
    /// Predicted entity per cell (`None` = abstain / literal).
    pub cell_entities: Vec<Vec<Option<EntityId>>>,
    /// Predicted type per column (`None` = abstain / literal column).
    pub col_types: Vec<Option<TypeId>>,
    /// Time charged to the lookup service (measured + simulated latency).
    pub lookup_time: Duration,
    /// Time spent in system post-processing.
    pub post_time: Duration,
}

/// A semantic-table-annotation pipeline with a pluggable lookup service.
pub trait AnnotationSystem: Sync {
    /// System name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Annotates one table: CEA for every entity cell, CTA per column.
    fn annotate(
        &self,
        kg: &KnowledgeGraph,
        table: &Table,
        service: &dyn LookupService,
        k: usize,
    ) -> TableAnnotation;
}

/// Fetches candidates for every present entity cell of the table in one
/// batched, timed call. Returns a map `(row, col) → candidates`.
fn fetch_candidates(
    table: &Table,
    service: &dyn LookupService,
    k: usize,
) -> (HashMap<(usize, usize), Vec<Candidate>>, Duration) {
    let coords: Vec<(usize, usize)> = table.entity_cells().map(|(r, c, _)| (r, c)).collect();
    let queries: Vec<&str> = table
        .entity_cells()
        .map(|(_, _, cell)| cell.text.as_str())
        .collect();
    let (results, elapsed) = service.lookup_batch_timed(&queries, k);
    let map = coords.into_iter().zip(results).collect();
    (map, elapsed)
}

/// Majority direct type among a column's predicted entities; ties broken
/// by the smaller type id for determinism.
fn column_majority_type(
    kg: &KnowledgeGraph,
    entities: impl Iterator<Item = EntityId>,
) -> Option<TypeId> {
    let mut votes: HashMap<TypeId, usize> = HashMap::new();
    for e in entities {
        for &t in &kg.entity(e).types {
            *votes.entry(t).or_default() += 1;
        }
    }
    votes
        .into_iter()
        .max_by_key(|&(t, n)| (n, std::cmp::Reverse(t)))
        .map(|(t, _)| t)
}

/// Empty annotation skeleton matching the table's shape.
fn empty_annotation(table: &Table) -> (Vec<Vec<Option<EntityId>>>, Vec<Option<TypeId>>) {
    (
        table
            .rows
            .iter()
            .map(|row| vec![None; row.len()])
            .collect(),
        vec![None; table.num_cols()],
    )
}

// --------------------------------------------------------------------
// bbw
// --------------------------------------------------------------------

/// bbw-style annotation: candidates are re-scored by contextual match —
/// a candidate earns a bonus for every fact connecting it to a top
/// candidate of another cell in the same row ("meta-lookup + contextual
/// matching" in the original system).
pub struct BbwSystem;

impl AnnotationSystem for BbwSystem {
    fn name(&self) -> &'static str {
        "bbw"
    }

    fn annotate(
        &self,
        kg: &KnowledgeGraph,
        table: &Table,
        service: &dyn LookupService,
        k: usize,
    ) -> TableAnnotation {
        let (candidates, lookup_time) = fetch_candidates(table, service, k);
        let start = Instant::now();
        let (mut cells, mut cols) = empty_annotation(table);

        for (r, cell_row) in cells.iter_mut().enumerate() {
            // top candidates of the other cells in this row form the context
            let row_context: Vec<EntityId> = (0..table.num_cols())
                .filter_map(|c| candidates.get(&(r, c)))
                .flat_map(|cands| cands.iter().take(3).map(|c| c.entity))
                .collect();
            for (c, cell) in cell_row.iter_mut().enumerate() {
                let Some(cands) = candidates.get(&(r, c)) else { continue };
                let best = cands
                    .iter()
                    .enumerate()
                    .map(|(rank, cand)| {
                        let context_bonus = row_context
                            .iter()
                            .filter(|&&other| {
                                other != cand.entity
                                    && (kg.connected(cand.entity, other)
                                        || kg.connected(other, cand.entity))
                            })
                            .count();
                        // rank keeps the service's ordering as the prior
                        (cand.entity, context_bonus as i64 * 10 - rank as i64)
                    })
                    .max_by_key(|&(_, s)| s);
                *cell = best.map(|(e, _)| e);
            }
        }
        for c in 0..table.num_cols() {
            if table.col_types[c].is_some() {
                cols[c] = column_majority_type(
                    kg,
                    (0..table.num_rows()).filter_map(|r| cells[r][c]),
                );
            }
        }
        TableAnnotation {
            cell_entities: cells,
            col_types: cols,
            lookup_time,
            post_time: start.elapsed(),
        }
    }
}

// --------------------------------------------------------------------
// MantisTable
// --------------------------------------------------------------------

/// MantisTable-style annotation: a first pass elects each column's
/// majority type from top-1 candidates; a second pass restricts each
/// cell's candidates to the elected type before choosing the best match.
pub struct MantisTableSystem;

impl AnnotationSystem for MantisTableSystem {
    fn name(&self) -> &'static str {
        "MantisTable"
    }

    fn annotate(
        &self,
        kg: &KnowledgeGraph,
        table: &Table,
        service: &dyn LookupService,
        k: usize,
    ) -> TableAnnotation {
        let (candidates, lookup_time) = fetch_candidates(table, service, k);
        let start = Instant::now();
        let (mut cells, mut cols) = empty_annotation(table);

        // phase 1: column type election from top-1 candidates
        let mut elected: Vec<Option<TypeId>> = vec![None; table.num_cols()];
        for (c, slot) in elected.iter_mut().enumerate() {
            if table.col_types[c].is_none() {
                continue;
            }
            *slot = column_majority_type(
                kg,
                (0..table.num_rows())
                    .filter_map(|r| candidates.get(&(r, c)))
                    .filter_map(|cands| cands.first())
                    .map(|cand| cand.entity),
            );
        }

        // phase 2: type-constrained disambiguation
        #[expect(clippy::iter_over_hash_type, reason = "each cell is written once; no order reaches the output")]
        for ((r, c), cands) in &candidates {
            let pick = match elected[*c] {
                Some(t) => cands
                    .iter()
                    .find(|cand| kg.entity(cand.entity).types.contains(&t))
                    .or_else(|| cands.first()),
                None => cands.first(),
            };
            cells[*r][*c] = pick.map(|cand| cand.entity);
        }
        for c in 0..table.num_cols() {
            if table.col_types[c].is_some() {
                cols[c] = column_majority_type(
                    kg,
                    (0..table.num_rows()).filter_map(|r| cells[r][c]),
                );
            }
        }
        TableAnnotation {
            cell_entities: cells,
            col_types: cols,
            lookup_time,
            post_time: start.elapsed(),
        }
    }
}

// --------------------------------------------------------------------
// JenTab
// --------------------------------------------------------------------

/// JenTab-style annotation: iterative candidate pruning — candidates that
/// lack both row support (no fact link to surviving candidates of the
/// row) and type support (minority type in their column) are removed over
/// a few rounds before final selection.
pub struct JenTabSystem {
    /// Pruning rounds (the original runs create/filter/select loops).
    pub rounds: usize,
}

impl Default for JenTabSystem {
    fn default() -> Self {
        JenTabSystem { rounds: 2 }
    }
}

impl AnnotationSystem for JenTabSystem {
    fn name(&self) -> &'static str {
        "JenTab"
    }

    fn annotate(
        &self,
        kg: &KnowledgeGraph,
        table: &Table,
        service: &dyn LookupService,
        k: usize,
    ) -> TableAnnotation {
        let (fetched, lookup_time) = fetch_candidates(table, service, k);
        let start = Instant::now();
        let mut pools: HashMap<(usize, usize), Vec<Candidate>> = fetched;
        let (mut cells, mut cols) = empty_annotation(table);

        for _ in 0..self.rounds {
            // column type support from current pools
            let mut col_type: Vec<Option<TypeId>> = vec![None; table.num_cols()];
            for (c, slot) in col_type.iter_mut().enumerate() {
                *slot = column_majority_type(
                    kg,
                    (0..table.num_rows())
                        .filter_map(|r| pools.get(&(r, c)))
                        .filter_map(|p| p.first())
                        .map(|cand| cand.entity),
                );
            }
            let snapshot: HashMap<(usize, usize), Vec<EntityId>> = pools
                .iter()
                .map(|(&rc, cands)| (rc, cands.iter().take(3).map(|c| c.entity).collect()))
                .collect();
            #[expect(clippy::iter_over_hash_type, reason = "each pool is filtered against the frozen snapshot, independently of the others")]
            for (&(r, c), cands) in pools.iter_mut() {
                if cands.len() <= 1 {
                    continue;
                }
                let keep: Vec<Candidate> = cands
                    .iter()
                    .filter(|cand| {
                        let type_ok = col_type[c]
                            .map(|t| kg.entity(cand.entity).types.contains(&t))
                            .unwrap_or(true);
                        let row_ok = (0..table.num_cols()).any(|c2| {
                            c2 != c
                                && snapshot.get(&(r, c2)).is_some_and(|others| {
                                    others.iter().any(|&o| {
                                        kg.connected(cand.entity, o) || kg.connected(o, cand.entity)
                                    })
                                })
                        });
                        type_ok || row_ok
                    })
                    .cloned()
                    .collect();
                if !keep.is_empty() {
                    *cands = keep;
                }
            }
        }
        #[expect(clippy::iter_over_hash_type, reason = "each cell is written once; no order reaches the output")]
        for (&(r, c), cands) in &pools {
            cells[r][c] = cands.first().map(|cand| cand.entity);
        }
        for c in 0..table.num_cols() {
            if table.col_types[c].is_some() {
                // JenTab reports the most specific covering type: prefer a
                // child type over its parent when both are voted
                let majority = column_majority_type(
                    kg,
                    (0..table.num_rows()).filter_map(|r| cells[r][c]),
                );
                cols[c] = majority;
            }
        }
        TableAnnotation {
            cell_entities: cells,
            col_types: cols,
            lookup_time,
            post_time: start.elapsed(),
        }
    }
}

// --------------------------------------------------------------------
// DoSeR (entity disambiguation)
// --------------------------------------------------------------------

/// Result of collective disambiguation over a mention list.
#[derive(Debug, Clone)]
pub struct DisambiguationResult {
    /// Chosen entity per mention (`None` = no candidate).
    pub assignments: Vec<Option<EntityId>>,
    /// Time charged to the lookup service.
    pub lookup_time: Duration,
    /// Post-processing time.
    pub post_time: Duration,
}

/// DoSeR-style collective entity disambiguation: candidates of all
/// mentions form a graph (edges = KG facts); scores propagate PageRank-
/// style so candidates coherent with the rest of the list win.
pub struct DoSerSystem {
    /// Propagation damping factor.
    pub damping: f32,
    /// Propagation iterations.
    pub iterations: usize,
}

impl Default for DoSerSystem {
    fn default() -> Self {
        DoSerSystem { damping: 0.6, iterations: 8 }
    }
}

impl DoSerSystem {
    /// Disambiguates a list of mentions collectively.
    pub fn disambiguate(
        &self,
        kg: &KnowledgeGraph,
        mentions: &[&str],
        service: &dyn LookupService,
        k: usize,
    ) -> DisambiguationResult {
        let (pools, lookup_time) = service.lookup_batch_timed(mentions, k);
        let start = Instant::now();

        // flatten candidates into nodes
        let mut nodes: Vec<(usize, EntityId, f32)> = Vec::new(); // (mention, entity, prior)
        for (m, pool) in pools.iter().enumerate() {
            for (rank, cand) in pool.iter().enumerate() {
                // rank-based prior is robust across score scales
                nodes.push((m, cand.entity, 1.0 / (1.0 + rank as f32)));
            }
        }
        // adjacency among candidates of different mentions
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                if nodes[i].0 == nodes[j].0 {
                    continue;
                }
                if kg.connected(nodes[i].1, nodes[j].1) || kg.connected(nodes[j].1, nodes[i].1) {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }
        // score propagation
        let mut score: Vec<f32> = nodes.iter().map(|&(_, _, p)| p).collect();
        for _ in 0..self.iterations {
            let mut next = vec![0.0f32; nodes.len()];
            for i in 0..nodes.len() {
                let spread: f32 = adj[i]
                    .iter()
                    .map(|&j| score[j] / adj[j].len().max(1) as f32)
                    .sum();
                next[i] = (1.0 - self.damping) * nodes[i].2 + self.damping * spread;
            }
            score = next;
        }
        // argmax per mention
        let mut assignments: Vec<Option<EntityId>> = vec![None; mentions.len()];
        let mut best: Vec<f32> = vec![f32::NEG_INFINITY; mentions.len()];
        for (i, &(m, e, _)) in nodes.iter().enumerate() {
            if score[i] > best[m] {
                best[m] = score[i];
                assignments[m] = Some(e);
            }
        }
        DisambiguationResult {
            assignments,
            lookup_time,
            post_time: start.elapsed(),
        }
    }
}

// --------------------------------------------------------------------
// Katara (data repair)
// --------------------------------------------------------------------

/// Result of repairing one table.
#[derive(Debug, Clone)]
pub struct RepairResult {
    /// Imputed entity per missing cell, keyed by `(row, col)`.
    pub imputations: HashMap<(usize, usize), EntityId>,
    /// Time charged to the lookup service.
    pub lookup_time: Duration,
    /// Post-processing time.
    pub post_time: Duration,
}

/// Katara-style repair: discover the dominant KG property linking each
/// column pair from complete rows, then impute missing cells by following
/// that property from the row's other annotated entities.
pub struct KataraSystem;

impl KataraSystem {
    /// Repairs the missing entity cells of `table`.
    pub fn repair(
        &self,
        kg: &KnowledgeGraph,
        table: &Table,
        service: &dyn LookupService,
        k: usize,
    ) -> RepairResult {
        // annotate present cells (top-1) to ground the pattern discovery
        let (candidates, lookup_time) = fetch_candidates(table, service, k);
        let start = Instant::now();
        let mut annotated: HashMap<(usize, usize), EntityId> = HashMap::new();
        #[expect(clippy::iter_over_hash_type, reason = "one insert per distinct key; the map is the same in any order")]
        for (&rc, cands) in &candidates {
            if let Some(first) = cands.first() {
                annotated.insert(rc, first.entity);
            }
        }

        // discover dominant property per ordered column pair (src -> dst)
        let ncols = table.num_cols();
        // ordered: the first property seen wins a tie below, so the
        // iteration order decides which property is dominant
        let mut pair_votes: BTreeMap<(usize, usize, emblookup_kg::PropertyId), usize> =
            BTreeMap::new();
        for r in 0..table.num_rows() {
            for src in 0..ncols {
                for dst in 0..ncols {
                    if src == dst {
                        continue;
                    }
                    let (Some(&es), Some(&ed)) =
                        (annotated.get(&(r, src)), annotated.get(&(r, dst)))
                    else {
                        continue;
                    };
                    for fact in kg.facts_of(es) {
                        if matches!(fact.object, emblookup_kg::Object::Entity(o) if o == ed) {
                            *pair_votes.entry((src, dst, fact.property)).or_default() += 1;
                        }
                    }
                }
            }
        }
        let mut dominant: HashMap<(usize, usize), emblookup_kg::PropertyId> = HashMap::new();
        for (&(src, dst, prop), &votes) in &pair_votes {
            let best = dominant.get(&(src, dst));
            let best_votes = best
                .and_then(|p| pair_votes.get(&(src, dst, *p)))
                .copied()
                .unwrap_or(0);
            if votes > best_votes {
                dominant.insert((src, dst), prop);
            }
        }

        // impute: follow the dominant property from annotated row peers
        let mut imputations = HashMap::new();
        for r in 0..table.num_rows() {
            for c in 0..ncols {
                let cell = table.cell(r, c);
                if !cell.missing {
                    continue;
                }
                'src: for src in 0..ncols {
                    if src == c {
                        continue;
                    }
                    let Some(&es) = annotated.get(&(r, src)) else { continue };
                    if let Some(&prop) = dominant.get(&(src, c)) {
                        for fact in kg.facts_of(es) {
                            if fact.property == prop {
                                if let emblookup_kg::Object::Entity(o) = fact.object {
                                    imputations.insert((r, c), o);
                                    break 'src;
                                }
                            }
                        }
                    }
                    // reverse direction: dst -> src pattern
                    if let Some(&prop) = dominant.get(&(c, src)) {
                        for fact in kg.facts_about(es) {
                            if fact.property == prop {
                                imputations.insert((r, c), fact.subject);
                                break 'src;
                            }
                        }
                    }
                }
            }
        }
        RepairResult {
            imputations,
            lookup_time,
            post_time: start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{generate_dataset, with_missing, DatasetConfig};
    use emblookup_baselines::ExactMatchService;
    use emblookup_kg::{generate, SynthKgConfig};

    fn setup() -> (emblookup_kg::SynthKg, crate::datasets::Dataset) {
        let s = generate(SynthKgConfig::small(30));
        let ds = generate_dataset(&s, &DatasetConfig::tiny(30));
        (s, ds)
    }

    #[test]
    fn all_three_sta_systems_annotate_clean_tables_well() {
        let (s, ds) = setup();
        let service = ExactMatchService::new(&s.kg, false);
        let systems: Vec<Box<dyn AnnotationSystem>> = vec![
            Box::new(BbwSystem),
            Box::new(MantisTableSystem),
            Box::new(JenTabSystem::default()),
        ];
        for system in &systems {
            let mut correct = 0;
            let mut total = 0;
            for t in &ds.tables {
                let ann = system.annotate(&s.kg, t, &service, 10);
                for (r, c, cell) in t.entity_cells() {
                    total += 1;
                    if ann.cell_entities[r][c] == cell.truth {
                        correct += 1;
                    }
                }
            }
            // exact labels + exact-match lookup: the only errors come from
            // ambiguous labels, which context should mostly resolve
            assert!(
                correct * 10 >= total * 8,
                "{}: only {correct}/{total} CEA correct",
                system.name()
            );
        }
    }

    #[test]
    fn cta_matches_subject_column_type() {
        let (s, ds) = setup();
        let service = ExactMatchService::new(&s.kg, false);
        let system = MantisTableSystem;
        let mut hit = 0;
        let mut total = 0;
        for t in &ds.tables {
            let ann = system.annotate(&s.kg, t, &service, 10);
            for c in 0..t.num_cols() {
                if let Some(truth) = t.col_types[c] {
                    total += 1;
                    if ann.col_types[c] == Some(truth) {
                        hit += 1;
                    }
                }
            }
        }
        assert!(hit * 10 >= total * 7, "CTA {hit}/{total}");
    }

    #[test]
    fn doser_resolves_ambiguity_through_coherence() {
        let (s, _) = setup();
        let service = ExactMatchService::new(&s.kg, false);
        let doser = DoSerSystem::default();
        // mentions: a city and its country — coherent candidates connect
        let city = s.cities[0];
        let country = s
            .kg
            .facts_of(city)
            .find_map(|f| match (f.property == s.props.located_in, &f.object) {
                (true, emblookup_kg::Object::Entity(o)) => Some(*o),
                _ => None,
            })
            .unwrap();
        let m1 = s.kg.label(city).to_string();
        let m2 = s.kg.label(country).to_string();
        let result = doser.disambiguate(&s.kg, &[&m1, &m2], &service, 10);
        assert_eq!(result.assignments[0], Some(city));
        assert_eq!(result.assignments[1], Some(country));
    }

    #[test]
    fn katara_imputes_missing_related_cells() {
        // Katara's pattern discovery needs enough intact rows per table to
        // vote in the dominant property, so this test uses longer tables
        // than the `tiny` config used elsewhere.
        let (s, _) = setup();
        let cfg = DatasetConfig { tables: 4, rows: (10, 16), seed: 30, name: "repair".into() };
        let ds = generate_dataset(&s, &cfg);
        let broken = with_missing(&ds, 0.3, 31);
        let service = ExactMatchService::new(&s.kg, false);
        let katara = KataraSystem;
        let mut correct = 0;
        let mut total = 0;
        for t in &broken.tables {
            let result = katara.repair(&s.kg, t, &service, 10);
            for r in 0..t.num_rows() {
                for c in 0..t.num_cols() {
                    let cell = t.cell(r, c);
                    if cell.missing {
                        total += 1;
                        if result.imputations.get(&(r, c)) == cell.truth.as_ref() {
                            correct += 1;
                        }
                    }
                }
            }
        }
        assert!(total > 0, "no missing cells generated");
        assert!(
            correct * 2 >= total,
            "Katara imputed only {correct}/{total}"
        );
    }

    #[test]
    fn lookup_time_is_separated_from_post_time() {
        let (s, ds) = setup();
        let service = ExactMatchService::new(&s.kg, false);
        let ann = BbwSystem.annotate(&s.kg, &ds.tables[0], &service, 5);
        // both durations exist and are small for the tiny table
        assert!(ann.lookup_time < Duration::from_secs(1));
        assert!(ann.post_time < Duration::from_secs(1));
    }
}

