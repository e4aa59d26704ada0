//! The paper's evaluation as assertions: each entry of the claims table
//! (`emblookup_bench::claims`) is one `#[test]` named after it, checked at
//! smoke scale on one suite whose environments and reports every test
//! shares. A failure prints the entry and the numbers it compared.

use emblookup_bench::claims;
use emblookup_bench::harness::{Scale, Suite};

static SUITE: Suite = Suite::new(Scale::Smoke);

/// One `#[test]` per claims-table entry, and the list of their names.
macro_rules! claim_tests {
    ($($name:ident),* $(,)?) => {
        const TESTED: &[&str] = &[$(stringify!($name)),*];
        $(
            #[test]
            fn $name() {
                let outcome = claims::check(&SUITE, stringify!($name)).expect("an entry of this name");
                assert!(outcome.holds, "{outcome}");
            }
        )*
    };
}

claim_tests!(
    table1_reports_three_datasets,
    table2_has_all_eight_rows,
    table5_compares_eight_services,
    fig4_recall_is_in_unit_interval,
    fig5_covers_byte_budgets,
    index_sizes_show_pq_smaller_than_flat,
    table2_el_is_faster_at_the_originals_f,
    table3_el_is_faster_at_the_originals_f,
    table4_jentab_with_el_is_at_least_the_original,
    table5_exact_lookups_collapse_under_noise_and_el_does_not,
    table5_el_outpaces_remote_services_and_scans,
    table6_only_el_lets_katara_repair_aliased_cells,
    table7_emblookup_has_the_best_f_under_error,
    fig4_recall_at_k50_and_k100_is_above_k5_and_k10,
    table2_bbw_cea_deviation,
    fig5_pq_finds_at_least_what_pca_finds_at_8_and_16_bytes,
    table3_bbw_cea_deviation,
    table5_noise_deviation,
    table5_speed_deviation,
    table6_el_alias_cea_deviation,
);

#[test]
fn every_claim_has_a_test() {
    assert_eq!(claims::names().collect::<Vec<_>>(), TESTED);
}
