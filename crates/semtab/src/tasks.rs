//! Task-level evaluation: runs a system + lookup service over a dataset
//! and reports the F-score and timing split the paper's tables use.

use crate::datasets::Dataset;
use crate::metrics::PrF;
use crate::systems::{AnnotationSystem, DoSerSystem, KataraSystem};
use emblookup_kg::{KnowledgeGraph, LookupService};
use std::time::Duration;

/// Outcome of running one task over one dataset with one lookup service.
#[derive(Debug, Clone, Default)]
pub struct TaskReport {
    /// Accuracy tally.
    pub metrics: PrF,
    /// Total time charged to the lookup service.
    pub lookup_time: Duration,
    /// Total post-processing time.
    pub post_time: Duration,
    /// Number of evaluated items (cells / columns / mentions).
    pub items: usize,
}

impl TaskReport {
    /// The F-score the paper reports.
    pub fn f1(&self) -> f64 {
        self.metrics.f1()
    }
}

/// Candidate-set size used throughout the evaluation; the paper retrieves
/// 20–100 neighbours and post-processes.
pub const DEFAULT_K: usize = 20;

/// Runs CEA and CTA off one annotation pass per table, returned as
/// `(cea, cta)`. CEA: per entity cell, does the system's chosen entity
/// match the ground truth? CTA: per typed column, does its elected type?
/// Both reports carry the whole pass's lookup and post-processing time.
pub fn run_cea_cta(
    kg: &KnowledgeGraph,
    dataset: &Dataset,
    system: &dyn AnnotationSystem,
    service: &dyn LookupService,
    k: usize,
) -> (TaskReport, TaskReport) {
    let (mut cea, mut cta) = (TaskReport::default(), TaskReport::default());
    for table in &dataset.tables {
        let ann = system.annotate(kg, table, service, k);
        for report in [&mut cea, &mut cta] {
            report.lookup_time += ann.lookup_time;
            report.post_time += ann.post_time;
        }
        for (r, c, cell) in table.entity_cells() {
            let predicted = ann.cell_entities[r][c];
            cea.metrics.record(predicted.is_some(), predicted == cell.truth);
            cea.items += 1;
        }
        for c in 0..table.num_cols() {
            let Some(truth) = table.col_types[c] else { continue };
            let predicted = ann.col_types[c];
            // a parent type counts as correct only if it equals the truth;
            // the paper scores the most specific annotation
            cta.metrics.record(predicted.is_some(), predicted == Some(truth));
            cta.items += 1;
        }
    }
    (cea, cta)
}

/// Runs entity disambiguation: each table's entity cells of each row form
/// a mention list disambiguated collectively.
pub fn run_entity_disambiguation(
    kg: &KnowledgeGraph,
    dataset: &Dataset,
    system: &DoSerSystem,
    service: &dyn LookupService,
    k: usize,
) -> TaskReport {
    let mut report = TaskReport::default();
    for table in &dataset.tables {
        for row in &table.rows {
            let mentions: Vec<&str> = row
                .iter()
                .filter(|c| c.truth.is_some() && !c.missing)
                .map(|c| c.text.as_str())
                .collect();
            if mentions.len() < 2 {
                continue;
            }
            let truths: Vec<_> = row
                .iter()
                .filter(|c| !c.missing)
                .filter_map(|c| c.truth)
                .collect();
            let result = system.disambiguate(kg, &mentions, service, k);
            report.lookup_time += result.lookup_time;
            report.post_time += result.post_time;
            for (assigned, truth) in result.assignments.iter().zip(&truths) {
                report.metrics.record(assigned.is_some(), *assigned == Some(*truth));
                report.items += 1;
            }
        }
    }
    report
}

/// Runs data repair over a dataset whose cells were blanked with
/// [`crate::datasets::with_missing`]: does the imputed entity match the
/// original?
pub fn run_data_repair(
    kg: &KnowledgeGraph,
    dataset: &Dataset,
    system: &KataraSystem,
    service: &dyn LookupService,
    k: usize,
) -> TaskReport {
    let mut report = TaskReport::default();
    for table in &dataset.tables {
        let result = system.repair(kg, table, service, k);
        report.lookup_time += result.lookup_time;
        report.post_time += result.post_time;
        for r in 0..table.num_rows() {
            for c in 0..table.num_cols() {
                let cell = table.cell(r, c);
                if !cell.missing {
                    continue;
                }
                let imputed = result.imputations.get(&(r, c)).copied();
                report.metrics.record(imputed.is_some(), imputed == cell.truth);
                report.items += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{generate_dataset, with_missing, with_noise, DatasetConfig};
    use crate::systems::BbwSystem;
    use emblookup_baselines::{ExactMatchService, LevenshteinService};
    use emblookup_kg::{generate, SynthKgConfig};

    #[test]
    fn cea_perfect_on_clean_data_with_exact_lookup_drops_under_noise() {
        let s = generate(SynthKgConfig::small(40));
        let ds = generate_dataset(&s, &DatasetConfig::tiny(40));
        let service = ExactMatchService::new(&s.kg, false);

        let (clean, _) = run_cea_cta(&s.kg, &ds, &BbwSystem, &service, 10);
        assert!(clean.f1() > 0.8, "clean F1 {}", clean.f1());

        let noisy_ds = with_noise(&ds, 0.5, 41);
        let (noisy, _) = run_cea_cta(&s.kg, &noisy_ds, &BbwSystem, &service, 10);
        assert!(
            noisy.f1() < clean.f1() - 0.2,
            "noise did not hurt exact match: {} vs {}",
            noisy.f1(),
            clean.f1()
        );
    }

    #[test]
    fn levenshtein_is_more_robust_than_exact_under_noise() {
        let s = generate(SynthKgConfig::small(42));
        let ds = generate_dataset(&s, &DatasetConfig::tiny(42));
        let noisy_ds = with_noise(&ds, 0.6, 43);
        let exact = ExactMatchService::new(&s.kg, false);
        let lev = LevenshteinService::new(&s.kg, false, 3);
        let f_exact = run_cea_cta(&s.kg, &noisy_ds, &BbwSystem, &exact, 10).0.f1();
        let f_lev = run_cea_cta(&s.kg, &noisy_ds, &BbwSystem, &lev, 10).0.f1();
        assert!(
            f_lev > f_exact,
            "Levenshtein {f_lev} not better than exact {f_exact} under noise"
        );
    }

    #[test]
    fn cta_reports_column_items() {
        let s = generate(SynthKgConfig::small(44));
        let ds = generate_dataset(&s, &DatasetConfig::tiny(44));
        let service = ExactMatchService::new(&s.kg, false);
        let (cea, report) = run_cea_cta(&s.kg, &ds, &BbwSystem, &service, 10);
        // one annotation pass: both tasks carry the same lookup time
        assert_eq!(cea.lookup_time, report.lookup_time);
        // one CTA item per typed column; the per-table count depends on
        // which templates the seed draws (wide person tables have three)
        let typed_cols: usize = ds
            .tables
            .iter()
            .map(|t| t.col_types.iter().filter(|c| c.is_some()).count())
            .sum();
        assert!(typed_cols >= 8, "tiny dataset too small: {typed_cols}");
        assert_eq!(report.items, typed_cols);
        assert!(report.f1() > 0.6, "CTA F1 {}", report.f1());
    }

    #[test]
    fn entity_disambiguation_runs_per_row() {
        let s = generate(SynthKgConfig::small(45));
        let ds = generate_dataset(&s, &DatasetConfig::tiny(45));
        let service = ExactMatchService::new(&s.kg, false);
        let report = run_entity_disambiguation(
            &s.kg, &ds, &DoSerSystem::default(), &service, 10,
        );
        assert!(report.items > 0);
        assert!(report.f1() > 0.7, "EA F1 {}", report.f1());
    }

    #[test]
    fn data_repair_scores_missing_cells_only() {
        let s = generate(SynthKgConfig::small(46));
        let ds = with_missing(&generate_dataset(&s, &DatasetConfig::tiny(46)), 0.25, 46);
        let service = ExactMatchService::new(&s.kg, false);
        let report = run_data_repair(&s.kg, &ds, &KataraSystem, &service, 10);
        assert!(report.items > 0);
        let missing: usize = ds
            .tables
            .iter()
            .flat_map(|t| t.rows.iter().flatten())
            .filter(|c| c.missing)
            .count();
        assert_eq!(report.items, missing);
    }
}
