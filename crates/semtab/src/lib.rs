//! # emblookup-semtab
//!
//! The application layer of the EmbLookup reproduction: tabular data
//! model, synthetic benchmark datasets (ST-Wikidata / ST-DBPedia / Tough
//! Tables analogues), the four semantic annotation tasks (CEA, CTA, entity
//! disambiguation, data repair), and reimplementations of the five systems
//! whose lookup component the paper accelerates (bbw, MantisTable, JenTab,
//! DoSeR, Katara).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod csv_io;
pub mod datasets;
pub mod metrics;
pub mod systems;
pub mod table;
pub mod tasks;

pub use datasets::{
    generate_dataset, with_alias_substitution, with_missing, with_noise, Dataset, DatasetConfig,
};
pub use csv_io::{apply_cea_targets, apply_cta_targets, cea_targets_to_csv, cta_targets_to_csv, table_from_csv, table_to_csv};
pub use metrics::PrF;
pub use systems::{
    AnnotationSystem, BbwSystem, DoSerSystem, JenTabSystem, KataraSystem, MantisTableSystem,
    TableAnnotation,
};
pub use table::{Cell, Table};
pub use tasks::{run_cea_cta, run_data_repair, run_entity_disambiguation, TaskReport, DEFAULT_K};
