//! The paper's evaluation as assertions. The experiments run at smoke
//! scale over two shared environments (ST-Wikidata and ST-DBPedia), and
//! each claim of the paper that the reproduction holds is one `#[test]` on
//! the unrounded numbers of its [`Report`]. Where the reproduction does
//! not show the paper's shape, a `*_deviation` test pins today's numbers
//! and names the ROADMAP item whose fix should flip it: a change that
//! moves a reproduced number past one fails here on purpose.
//!
//! Table VIII, Fig. 3 and the ablation retrain the model per row and are
//! not run here (DESIGN.md §4).

#![allow(
    clippy::panic,
    reason = "an integration test: a panic is its failure report"
)]

use emblookup_bench::experiments as exp;
use emblookup_bench::harness::{Env, Scale};
use emblookup_bench::report::Report;
use emblookup_kg::KgFlavor;
use std::sync::OnceLock;

fn wd() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(|| Env::build(KgFlavor::Wikidata, Scale::Smoke))
}

fn db() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(|| Env::build(KgFlavor::DbPedia, Scale::Smoke))
}

/// Each report is computed once and shared by every test that reads it.
macro_rules! shared_report {
    ($name:ident, $build:expr) => {
        fn $name() -> &'static Report {
            static REPORT: OnceLock<Report> = OnceLock::new();
            REPORT.get_or_init(|| $build)
        }
    };
}

shared_report!(table2, exp::speedups(wd()));
shared_report!(table3, exp::speedups(db()));
shared_report!(table4, exp::table4(wd(), db(), Scale::Smoke));
shared_report!(table5, exp::table5(Scale::Smoke));
shared_report!(table6, exp::table6(wd(), db(), Scale::Smoke));
shared_report!(table7, exp::table7(wd()));
shared_report!(fig4, exp::fig4(wd()));
shared_report!(fig5, exp::fig5(wd()));
shared_report!(sizes, exp::index_sizes(wd()));

/// The unrounded number at (`row`, `column`); a missing one fails the test.
fn value(report: &Report, row: &str, column: &str) -> f64 {
    report
        .value(row, column)
        .unwrap_or_else(|| panic!("no number at ({row}, {column}) in:\n{report}"))
}

const SPEEDUP_ROWS: [&str; 8] = [
    "CEA bbw",
    "CEA MantisTable",
    "CEA JenTab",
    "CTA bbw",
    "CTA MantisTable",
    "CTA JenTab",
    "EA DoSeR",
    "DR Katara",
];

const DATASETS: [&str; 3] = ["ST-Wikidata", "ST-DBPedia", "ToughTables"];

// ------------------------------------------------------------------
// Structure
// ------------------------------------------------------------------

#[test]
fn table1_reports_three_datasets() {
    let report = exp::table1(Scale::Smoke);
    for dataset in ["ST-Wikidata", "ST-DBPedia", "Tough Tables"] {
        for stat in ["#Tables", "Avg #Rows", "Avg #Cols", "#Cells to annotate"] {
            assert!(
                value(&report, stat, dataset) > 0.0,
                "{stat} of {dataset}:\n{report}"
            );
        }
    }
}

#[test]
fn table2_has_all_eight_rows() {
    for row in SPEEDUP_ROWS {
        for column in [
            "Speedup CPU (EL)",
            "Speedup GPU* (EL-NC)",
            "F orig",
            "F EL",
            "F EL-NC",
        ] {
            value(table2(), row, column);
        }
    }
}

#[test]
fn table5_compares_eight_services() {
    for svc in [
        "FuzzyWuzzy",
        "Elastic Search",
        "LSH",
        "Exact Match",
        "q-gram",
        "Levenshtein",
        "Wikidata API",
        "SearX API",
    ] {
        value(table5(), svc, "F (no error) orig");
    }
}

#[test]
fn fig4_recall_is_in_unit_interval() {
    for k in ["1", "2", "5", "10", "20", "50", "100"] {
        let recall = value(fig4(), k, "Recall of EL vs EL-NC");
        assert!((0.0..=1.0).contains(&recall), "recall {recall} at k = {k}");
    }
}

#[test]
fn fig5_covers_byte_budgets() {
    for bytes in ["8", "16", "32", "64", "256 (none)"] {
        for column in ["CEA (PQ)", "CEA (PCA)", "CTA (PQ)", "CTA (PCA)", "hit@20 (PQ)", "hit@20 (PCA)"] {
            value(fig5(), bytes, column);
        }
    }
}

#[test]
fn gpu_cost_model_is_documented_constant() {
    assert_eq!(exp::GPU_LANES, 4);
    let d = std::time::Duration::from_millis(40);
    assert_eq!(exp::gpu_time(d), std::time::Duration::from_millis(10));
}

// ------------------------------------------------------------------
// The paper's shape: claims the reproduction holds
// ------------------------------------------------------------------

/// §IV-D: the PQ index is smaller than the flat one, and both are smaller
/// than an ElasticSearch-style index with aliases.
#[test]
fn index_sizes_show_pq_smaller_than_flat() {
    let pq = value(sizes(), "EmbLookup PQ (EL)", "Bytes");
    let flat = value(sizes(), "EmbLookup flat (EL-NC)", "Bytes");
    let elastic = value(sizes(), "ElasticLike labels+aliases", "Bytes");
    assert!(
        0.0 < pq && pq < flat && flat < elastic,
        "PQ {pq}, flat {flat}, Elastic {elastic}"
    );
}

/// Tables II and III: EL's lookups are faster than every system's
/// original, and every row keeps its F within 0.03 of the original's, but
/// for the rows in `deviating` (Table III's bbw CEA, a `*_deviation`
/// below).
fn assert_el_is_faster_at_the_originals_f(report: &Report, deviating: &[&str]) {
    for row in SPEEDUP_ROWS {
        let speedup = value(report, row, "Speedup CPU (EL)");
        assert!(speedup > 1.0, "{row}: EL speedup {speedup}\n{report}");
        if !deviating.contains(&row) {
            let (orig, el) = (value(report, row, "F orig"), value(report, row, "F EL"));
            assert!(
                el >= orig - 0.03,
                "{row}: F EL {el} vs orig {orig}\n{report}"
            );
        }
    }
}

#[test]
fn table2_el_is_faster_at_the_originals_f() {
    assert_el_is_faster_at_the_originals_f(table2(), &[]);
}

#[test]
fn table3_el_is_faster_at_the_originals_f() {
    assert_el_is_faster_at_the_originals_f(table3(), &["CEA bbw"]);
}

/// Table IV: under cell noise, JenTab (exact Wikidata API lookups) with EL
/// is at least as good as with its original on every dataset; the widest
/// gap is on Tough Tables.
#[test]
fn table4_jentab_with_el_is_at_least_the_original() {
    for row in ["CEA JenTab", "CTA JenTab"] {
        for ds in DATASETS {
            let orig = value(table4(), row, &format!("{ds} orig"));
            let el = value(table4(), row, &format!("{ds} EL"));
            assert!(
                el >= orig,
                "{row} on {ds}: EL {el} < orig {orig}\n{}",
                table4()
            );
        }
    }
}

/// Table V under noise: exact matching — locally and behind the Wikidata
/// API — collapses, while EL keeps most of its F.
#[test]
fn table5_exact_lookups_collapse_under_noise_and_el_does_not() {
    let el = value(table5(), "Exact Match", "F (error) EL");
    assert!(el > 0.5, "EL F(error) {el}\n{}", table5());
    for svc in ["Exact Match", "Wikidata API"] {
        let f = value(table5(), svc, "F (error) orig");
        assert!(
            f < 0.25,
            "{svc} F(error) {f} did not collapse\n{}",
            table5()
        );
    }
}

/// Table V speed: EL outpaces the remote endpoints by orders of magnitude
/// (they run on the virtual clock) and every scan. The margins leave room
/// for the test threads running beside this one.
#[test]
fn table5_el_outpaces_remote_services_and_scans() {
    for (svc, floor) in [
        ("Wikidata API", 100.0),
        ("SearX API", 100.0),
        ("q-gram", 5.0),
        ("FuzzyWuzzy", 5.0),
        ("Levenshtein", 1.0),
        ("Elastic Search", 1.0),
    ] {
        let speedup = value(table5(), svc, "Speedup (CPU)");
        assert!(
            speedup > floor,
            "EL vs {svc}: {speedup}x, want > {floor}x\n{}",
            table5()
        );
    }
}

/// Table VI: Katara's label-only original finds no alias-substituted
/// mention, while EL finds some on every dataset.
#[test]
fn table6_only_el_lets_katara_repair_aliased_cells() {
    for ds in DATASETS {
        let orig = value(table6(), "DR Katara", &format!("{ds} orig"));
        let el = value(table6(), "DR Katara", &format!("{ds} EL"));
        assert!(
            orig == 0.0 && el > 0.0,
            "{ds}: orig {orig}, EL {el}\n{}",
            table6()
        );
    }
}

/// Table VII: under error, EmbLookup's encoder has the best F, and the
/// word-level encoders (word2vec, BERT-mini) fall below 0.5.
#[test]
fn table7_emblookup_has_the_best_f_under_error() {
    let el = value(table7(), "EmbLookup", "F (error)");
    for other in ["word2vec", "fastText", "BERT-mini", "LSTM"] {
        let f = value(table7(), other, "F (error)");
        assert!(el > f, "EmbLookup {el} vs {other} {f}\n{}", table7());
    }
    for weak in ["word2vec", "BERT-mini"] {
        let f = value(table7(), weak, "F (error)");
        assert!(f < 0.5, "{weak} F(error) {f}\n{}", table7());
    }
}

/// Fig. 4: PQ's recall against the flat index recovers as `k` grows to the
/// candidate-set sizes the systems use.
#[test]
fn fig4_recall_does_not_fall_from_k5_to_k100() {
    let recalls: Vec<f64> = ["5", "10", "20", "50", "100"]
        .iter()
        .map(|k| value(fig4(), k, "Recall of EL vs EL-NC"))
        .collect();
    assert!(
        recalls.windows(2).all(|w| w[0] <= w[1]),
        "{recalls:?}\n{}",
        fig4()
    );
}

/// Table II: bbw's CEA with EL keeps its F within 0.03 of its SearX
/// original (0.98 against 1.00 at smoke scale, `MASTER_SEED`). The row
/// deviated until bbw's context bonus stopped counting links to a rival
/// for the same cell; the test keeps the name it had then, and fails if
/// the gap comes back.
#[test]
fn table2_bbw_cea_deviation() {
    let (orig, el) = (value(table2(), "CEA bbw", "F orig"), value(table2(), "CEA bbw", "F EL"));
    assert!(
        orig - el <= 0.03,
        "CEA bbw: F EL {el} is again more than 0.03 below orig {orig}: bbw's context \
         bonus (bbw's scorer in `semtab::systems`) lets a rival's links outweigh EL's \
         rank-1 gold.\n{}",
        table2()
    );
}

// ------------------------------------------------------------------
// Deviations: where the reproduction does not show the paper's shape
// ------------------------------------------------------------------

/// Table III: bbw's CEA with EL still loses more than 0.03 F against its
/// SearX original (0.96 against 1.00 at smoke scale, `MASTER_SEED`). Its
/// context bonus counts only the row's other cells, and Table II's row
/// holds the claim; on the DBPedia-style tables the rest of the gap is
/// cells where EL's candidates lose gold that SearX's exact labels rank
/// first.
#[test]
fn table3_bbw_cea_deviation() {
    let (orig, el) = (value(table3(), "CEA bbw", "F orig"), value(table3(), "CEA bbw", "F EL"));
    assert!(
        orig - el > 0.03,
        "CEA bbw: F EL {el} is now within 0.03 of orig {orig}, closing the last gap of \
         0.04 F: move Table III's row into the claim test (ROADMAP A2's seed sweep says \
         on how many seeds it holds).\n{}",
        table3()
    );
}

/// Fig. 5 on fully-noised mentions: at 8 and 16 B per entity the PQ
/// index finds the entity at least as often as PCA at the same budget.
#[test]
fn fig5_pq_finds_at_least_what_pca_finds_at_8_and_16_bytes() {
    for bytes in ["8", "16"] {
        let (pq, pca) = (value(fig5(), bytes, "hit@20 (PQ)"), value(fig5(), bytes, "hit@20 (PCA)"));
        assert!(pq >= pca, "hit@20 at {bytes} B: PQ {pq} < PCA {pca}\n{}", fig5());
    }
}

/// Table V under noise: EL's F is below the best scan's, 0.83 against
/// FuzzyWuzzy's 0.85 at smoke scale (`MASTER_SEED`), with EL trained on
/// the catalog it serves.
#[test]
fn table5_noise_deviation() {
    let el = value(table5(), "Exact Match", "F (error) EL");
    let best_scan = ["FuzzyWuzzy", "q-gram", "Levenshtein"]
        .iter()
        .map(|svc| value(table5(), svc, "F (error) orig"))
        .fold(0.0, f64::max);
    assert!(
        el < best_scan,
        "EL F(error) {el} now >= the best scan's {best_scan}, closing a gap of 0.02 F: \
         assert EL's lead instead (ROADMAP A2's seed sweep says on how many seeds it \
         holds).\n{}",
        table5()
    );
}

/// Table V speed: EL is not 10x faster than a hash lookup or LSH.
#[test]
fn table5_speed_deviation() {
    for svc in ["Exact Match", "LSH"] {
        let speedup = value(table5(), svc, "Speedup (CPU)");
        assert!(
            speedup < 10.0,
            "EL vs {svc}: {speedup}x. ROADMAP's ledger remainders (encoder cost) flipped \
             this deviation: assert the speedup instead.\n{}",
            table5()
        );
    }
}
