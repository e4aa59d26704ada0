//! Reproductions of every table and figure of the paper's evaluation.
//!
//! Each function builds its workload, runs the measurement and returns a
//! markdown-formatted report fragment. `src/bin/repro.rs` stitches them
//! together. Substitutions relative to the paper's setup are documented in
//! DESIGN.md §2; the per-experiment mapping lives in DESIGN.md §4.

use crate::harness::{hit_rate_at_k, speedup, Env, Scale, MASTER_SEED};
use emblookup_baselines::{
    ElasticLikeService, ElasticOp, ElasticOpService, ExactMatchService, FuzzyWuzzyService,
    LevenshteinService, LshService, MetaSearchService, QGramService, RemoteCostModel,
    RemoteService,
};
use emblookup_core::{Compression, EmbLookup, EmbLookupConfig, EncoderIndex};
use emblookup_embed::{
    BertMini, BertMiniConfig, Corpus, FastText, FastTextConfig, LstmEncoder,
    LstmEncoderConfig, Word2Vec, Word2VecConfig,
};
use emblookup_kg::{generate, KgFlavor, KnowledgeGraph, LookupService, SynthKg};
use emblookup_obs::fmt_duration;
use emblookup_semtab::{
    generate_dataset, run_cea, run_cta, run_data_repair, run_entity_disambiguation,
    with_alias_substitution, with_missing, with_noise, BbwSystem, Dataset,
    DatasetConfig, DoSerSystem, JenTabSystem, KataraSystem, MantisTableSystem, PrF, TaskReport,
};
use emblookup_ann::lsh::LshConfig;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Virtual data-parallel lanes standing in for the paper's V100 GPU
/// columns. GPU acceleration of FAISS/PyTorch is batched data-parallel
/// distance computation; on this single-core testbed we charge the bulk
/// lookup `measured / GPU_LANES` on the same virtual clock used for the
/// simulated remote endpoints. The paper's GPU/CPU speedup ratio is ≈4×.
pub const GPU_LANES: u32 = 4;

/// Virtual GPU time for a measured bulk-lookup duration.
pub fn gpu_time(cpu: Duration) -> Duration {
    cpu / GPU_LANES
}

/// The lookup service each reimplemented system originally used
/// (see DESIGN.md: bbw→SearX meta-search, MantisTable→ElasticSearch server,
/// JenTab→Wikidata API, DoSeR→local fuzzy index, Katara→edit-distance scan).
pub fn original_service(system: &str, kg: &KnowledgeGraph) -> Box<dyn LookupService> {
    match system {
        "bbw" => Box::new(RemoteService::new(
            MetaSearchService::new(kg),
            RemoteCostModel::searx(),
            "SearX API",
        )),
        "MantisTable" => Box::new(RemoteService::new(
            ElasticLikeService::new(kg, false),
            // loopback server overhead of a real ElasticSearch instance
            RemoteCostModel {
                rtt: Duration::from_micros(500),
                server_time: Duration::from_micros(300),
                max_concurrency: 16,
            },
            "ElasticSearch",
        )),
        "JenTab" => Box::new(RemoteService::new(
            ExactMatchService::new(kg, true),
            RemoteCostModel::wikidata(),
            "Wikidata API",
        )),
        "DoSeR" => Box::new(QGramService::new(kg, false, 3)),
        "Katara" => Box::new(LevenshteinService::new(kg, false, 3)),
        #[expect(clippy::panic, reason = "dispatch over the const SYSTEMS table in this file; an unknown name is a programming error")]
        other => panic!("unknown system {other}"),
    }
}

/// One row of the Table II/III layout.
struct SpeedupRow {
    task: &'static str,
    system: &'static str,
    cpu_el: f64,
    cpu_elnc: f64,
    gpu_el: f64,
    gpu_elnc: f64,
    f_orig: f64,
    f_el: f64,
    f_elnc: f64,
}

/// Runs one (task, system) cell: original service vs EL vs EL-NC.
fn run_speedup_row(
    env: &Env,
    task: &'static str,
    system_name: &'static str,
) -> SpeedupRow {
    let kg = &env.synth.kg;
    let ds = &env.dataset;
    let original = original_service(system_name, kg);
    let k = emblookup_semtab::DEFAULT_K;

    let run = |service: &dyn LookupService| -> TaskReport {
        match (task, system_name) {
            ("CEA", "bbw") => run_cea(kg, ds, &BbwSystem, service, k),
            ("CEA", "MantisTable") => run_cea(kg, ds, &MantisTableSystem, service, k),
            ("CEA", "JenTab") => run_cea(kg, ds, &JenTabSystem::default(), service, k),
            ("CTA", "bbw") => run_cta(kg, ds, &BbwSystem, service, k),
            ("CTA", "MantisTable") => run_cta(kg, ds, &MantisTableSystem, service, k),
            ("CTA", "JenTab") => run_cta(kg, ds, &JenTabSystem::default(), service, k),
            ("EA", "DoSeR") => {
                run_entity_disambiguation(kg, ds, &DoSerSystem::default(), service, k)
            }
            ("DR", "Katara") => {
                let broken = with_missing(ds, 0.10, MASTER_SEED + 9);
                run_data_repair(kg, &broken, &KataraSystem, service, k)
            }
            #[expect(clippy::panic, reason = "dispatch over the const table rows declared above; an unknown cell is a programming error")]
            other => panic!("unknown cell {other:?}"),
        }
    };

    let orig = run(original.as_ref());
    let el = run(&env.el);
    let elnc = run(&env.el_nc);
    SpeedupRow {
        task,
        system: system_name,
        cpu_el: speedup(orig.lookup_time, el.lookup_time),
        cpu_elnc: speedup(orig.lookup_time, elnc.lookup_time),
        gpu_el: speedup(orig.lookup_time, gpu_time(el.lookup_time)),
        gpu_elnc: speedup(orig.lookup_time, gpu_time(elnc.lookup_time)),
        f_orig: orig.f1(),
        f_el: el.f1(),
        f_elnc: elnc.f1(),
    }
}

const SPEEDUP_CELLS: [(&str, &str); 8] = [
    ("CEA", "bbw"),
    ("CEA", "MantisTable"),
    ("CEA", "JenTab"),
    ("CTA", "bbw"),
    ("CTA", "MantisTable"),
    ("CTA", "JenTab"),
    ("EA", "DoSeR"),
    ("DR", "Katara"),
];

fn speedup_table(env: &Env, caption: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "### {caption}\n");
    let _ = writeln!(
        out,
        "| Task | System | Original | Speedup CPU (EL) | Speedup CPU (EL-NC) | Speedup GPU* (EL) | Speedup GPU* (EL-NC) | F orig | F EL | F EL-NC |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|");
    for (task, system) in SPEEDUP_CELLS {
        let orig_name = original_service(system, &env.synth.kg).name().to_string();
        let r = run_speedup_row(env, task, system);
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.0}x | {:.0}x | {:.0}x | {:.0}x | {:.2} | {:.2} | {:.2} |",
            r.task, r.system, orig_name, r.cpu_el, r.cpu_elnc, r.gpu_el, r.gpu_elnc,
            r.f_orig, r.f_el, r.f_elnc
        );
    }
    let _ = writeln!(
        out,
        "\n*GPU columns use the {GPU_LANES}-lane virtual data-parallel cost model (DESIGN.md §2)."
    );
    out
}

// ------------------------------------------------------------------
// Table I — dataset statistics
// ------------------------------------------------------------------

/// Table I: statistics of the three tabular benchmark datasets.
pub fn table1(scale: Scale) -> String {
    let mut out = String::from("## Table I — dataset statistics\n\n");
    let wd = generate(scale.kg_config(KgFlavor::Wikidata));
    let db = generate(scale.kg_config(KgFlavor::DbPedia));
    let datasets = [
        (
            generate_dataset(&wd, &scale.dataset_config(DatasetConfig::st_wikidata(MASTER_SEED + 1))),
            &wd,
        ),
        (
            generate_dataset(&db, &scale.dataset_config(DatasetConfig::st_dbpedia(MASTER_SEED + 2))),
            &db,
        ),
        (
            tough_tables(&wd, scale),
            &wd,
        ),
    ];
    let _ = writeln!(out, "| | {} | {} | {} |", datasets[0].0.name, datasets[1].0.name, datasets[2].0.name);
    let _ = writeln!(out, "|---|---|---|---|");
    let row = |label: &str, f: &dyn Fn(&Dataset) -> String| {
        format!(
            "| {label} | {} | {} | {} |",
            f(&datasets[0].0),
            f(&datasets[1].0),
            f(&datasets[2].0)
        )
    };
    let _ = writeln!(out, "{}", row("#Tables", &|d| d.tables.len().to_string()));
    let _ = writeln!(out, "{}", row("Avg #Rows", &|d| format!("{:.1}", d.avg_rows())));
    let _ = writeln!(out, "{}", row("Avg #Cols", &|d| format!("{:.1}", d.avg_cols())));
    let _ = writeln!(out, "{}", row("#Cells to annotate", &|d| d.num_entity_cells().to_string()));
    let _ = writeln!(
        out,
        "\nKG sizes: ST-Wikidata graph {} entities / {} facts, ST-DBPedia graph {} entities / {} facts.",
        wd.kg.num_entities(),
        wd.kg.num_facts(),
        db.kg.num_entities(),
        db.kg.num_facts()
    );
    out
}

/// The Tough Tables analogue: few large tables, heavy noise + ambiguity.
pub fn tough_tables(synth: &SynthKg, scale: Scale) -> Dataset {
    let base = generate_dataset(
        synth,
        &scale.dataset_config(DatasetConfig::tough_tables(MASTER_SEED + 3)),
    );
    let mut noisy = with_noise(&base, 0.35, MASTER_SEED + 3);
    noisy.name = "Tough Tables".into();
    noisy
}

// ------------------------------------------------------------------
// Tables II & III — system speedups on clean data
// ------------------------------------------------------------------

/// Table II: speedups + F-scores on the ST-Wikidata analogue.
pub fn table2(env: &Env) -> String {
    let mut out = String::from("## Table II — accelerating systems on ST-Wikidata\n\n");
    out.push_str(&speedup_table(env, "no-error variant, k = 20"));
    out
}

/// Table III: speedups + F-scores on the ST-DBPedia analogue.
pub fn table3(env: &Env) -> String {
    let mut out = String::from("## Table III — accelerating systems on ST-DBPedia\n\n");
    out.push_str(&speedup_table(env, "no-error variant, k = 20"));
    out
}

// ------------------------------------------------------------------
// Table IV — noisy datasets
// ------------------------------------------------------------------

/// Table IV: F-scores under 10% cell noise (plus the Tough Tables
/// analogue), original lookup vs EmbLookup, per system.
pub fn table4(env_wd: &Env, env_db: &Env, scale: Scale) -> String {
    let mut out = String::from("## Table IV — noisy tabular datasets\n\n");
    let noisy_wd = with_noise(&env_wd.dataset, 0.10, MASTER_SEED + 4);
    let noisy_db = with_noise(&env_db.dataset, 0.10, MASTER_SEED + 5);
    let tough = tough_tables(&env_wd.synth, scale);
    let _ = writeln!(
        out,
        "| Task | System | ST-Wikidata orig | ST-Wikidata EL | ST-DBPedia orig | ST-DBPedia EL | ToughTables orig | ToughTables EL |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
    for (task, system) in SPEEDUP_CELLS {
        let mut cells = Vec::new();
        for (env, ds) in [(env_wd, &noisy_wd), (env_db, &noisy_db), (env_wd, &tough)] {
            let (orig_f, el_f) = noisy_cell(env, ds, task, system);
            cells.push((orig_f, el_f));
        }
        let _ = writeln!(
            out,
            "| {} | {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} |",
            task, system, cells[0].0, cells[0].1, cells[1].0, cells[1].1, cells[2].0, cells[2].1
        );
    }
    out
}

fn noisy_cell(env: &Env, ds: &Dataset, task: &str, system: &str) -> (f64, f64) {
    let kg = &env.synth.kg;
    let original = original_service(system, kg);
    let k = emblookup_semtab::DEFAULT_K;
    let run = |service: &dyn LookupService| -> PrF {
        match (task, system) {
            ("CEA", "bbw") => run_cea(kg, ds, &BbwSystem, service, k).metrics,
            ("CEA", "MantisTable") => run_cea(kg, ds, &MantisTableSystem, service, k).metrics,
            ("CEA", "JenTab") => run_cea(kg, ds, &JenTabSystem::default(), service, k).metrics,
            ("CTA", "bbw") => run_cta(kg, ds, &BbwSystem, service, k).metrics,
            ("CTA", "MantisTable") => run_cta(kg, ds, &MantisTableSystem, service, k).metrics,
            ("CTA", "JenTab") => run_cta(kg, ds, &JenTabSystem::default(), service, k).metrics,
            ("EA", _) => {
                run_entity_disambiguation(kg, ds, &DoSerSystem::default(), service, k).metrics
            }
            ("DR", _) => {
                let broken = with_missing(ds, 0.10, MASTER_SEED + 9);
                run_data_repair(kg, &broken, &KataraSystem, service, k).metrics
            }
            #[expect(clippy::panic, reason = "dispatch over the const table rows declared above; an unknown cell is a programming error")]
            other => panic!("unknown cell {other:?}"),
        }
    };
    (run(original.as_ref()).f1(), run(&env.el).f1())
}

// ------------------------------------------------------------------
// Table V — head-to-head lookup services
// ------------------------------------------------------------------

/// Table V: EmbLookup vs eight lookup services on top-10 retrieval over
/// a large lookup catalog (the paper queries full Wikidata; speedup
/// magnitudes require a catalog much larger than the training KG, so this
/// experiment indexes the catalog graph with the already-trained model).
/// The error variant applies 1–3 corruptions per query ("dropping/
/// inserting one or more letters, transposing letters, swapping the
/// tokens, abbreviations" — §IV-B).
pub fn table5(env: &Env, scale: Scale) -> String {
    let mut out = String::from("## Table V — comparison with popular lookup services\n\n");
    let catalog = generate(scale.catalog_kg_config());
    let kg = &catalog.kg;
    let el = EmbLookup::from_model(env.el_nc.model_arc(), kg, Compression::default_pq());

    // query workload: sampled entity labels, clean + corrupted
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(MASTER_SEED + 60);
    let mut entity_pool: Vec<&emblookup_kg::Entity> = kg.entities().collect();
    entity_pool.shuffle(&mut rng);
    entity_pool.truncate(scale.catalog_queries());
    let clean: Vec<(String, emblookup_kg::EntityId)> = entity_pool
        .iter()
        .map(|e| (e.label.clone(), e.id))
        .collect();
    let injector = emblookup_text::NoiseInjector::with_kinds(vec![
        emblookup_text::NoiseKind::DropChar,
        emblookup_text::NoiseKind::InsertChar,
        emblookup_text::NoiseKind::SubstituteChar,
        emblookup_text::NoiseKind::TransposeChars,
        emblookup_text::NoiseKind::SwapTokens,
        emblookup_text::NoiseKind::Abbreviate,
    ]);
    let noisy: Vec<(String, emblookup_kg::EntityId)> = entity_pool
        .iter()
        .map(|e| {
            let n = rng.gen_range(1..=2usize);
            (injector.corrupt_n(&e.label, n, &mut rng), e.id)
        })
        .collect();

    let services: Vec<Box<dyn LookupService>> = vec![
        Box::new(FuzzyWuzzyService::new(kg, false)),
        Box::new(RemoteService::new(
            ElasticLikeService::new(kg, false),
            RemoteCostModel {
                rtt: Duration::from_micros(500),
                server_time: Duration::from_micros(300),
                max_concurrency: 16,
            },
            "Elastic Search",
        )),
        Box::new(LshService::new(kg, false, LshConfig::default())),
        Box::new(ElasticOpService::new(kg, false, ElasticOp::Exact)),
        Box::new(ElasticOpService::new(kg, false, ElasticOp::QGram)),
        Box::new(ElasticOpService::new(kg, false, ElasticOp::Levenshtein)),
        Box::new(RemoteService::new(
            ExactMatchService::new(kg, true),
            RemoteCostModel::wikidata(),
            "Wikidata API",
        )),
        Box::new(RemoteService::new(
            ElasticLikeService::new(kg, true),
            RemoteCostModel::searx(),
            "SearX API",
        )),
    ];

    let k = 10;
    let eval = |svc: &dyn LookupService,
                queries: &[(String, emblookup_kg::EntityId)]|
     -> (f64, Duration) {
        let refs: Vec<&str> = queries.iter().map(|(q, _)| q.as_str()).collect();
        let (results, elapsed) = svc.lookup_batch_timed(&refs, k);
        let mut m = PrF::default();
        for (hits, (_, truth)) in results.iter().zip(queries) {
            m.record(!hits.is_empty(), hits.iter().any(|c| c.entity == *truth));
        }
        (m.f1(), elapsed)
    };

    let (el_clean_f, el_time) = eval(&el, &clean);
    let (el_noisy_f, _) = eval(&el, &noisy);

    let _ = writeln!(
        out,
        "| Approach | Speedup (CPU) | Speedup (GPU*) | F (no error) orig | F (no error) EL | F (error) orig | F (error) EL |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|");
    for svc in &services {
        let (f_clean, t_clean) = eval(svc.as_ref(), &clean);
        let (f_noisy, _) = eval(svc.as_ref(), &noisy);
        let _ = writeln!(
            out,
            "| {} | {:.0}x | {:.0}x | {:.2} | {:.2} | {:.2} | {:.2} |",
            svc.name(),
            speedup(t_clean, el_time),
            speedup(t_clean, gpu_time(el_time)),
            f_clean,
            el_clean_f,
            f_noisy,
            el_noisy_f,
        );
    }
    let _ = writeln!(
        out,
        "\nCatalog: {} entities; {} queries; EmbLookup bulk time {} (CPU).",
        kg.num_entities(),
        clean.len(),
        fmt_duration(el_time)
    );
    out
}

// ------------------------------------------------------------------
// Table VI — semantic (alias) lookup
// ------------------------------------------------------------------

/// Table VI: F-scores when every mention is replaced by a random alias,
/// averaged over 5 perturbed variants.
pub fn table6(env_wd: &Env, env_db: &Env, scale: Scale) -> String {
    let mut out = String::from("## Table VI — semantic lookup (alias-substituted mentions)\n\n");
    let tough = tough_tables(&env_wd.synth, scale);
    let _ = writeln!(
        out,
        "| Task | System | ST-Wikidata orig | ST-Wikidata EL | ST-DBPedia orig | ST-DBPedia EL | ToughTables orig | ToughTables EL |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
    for (task, system) in SPEEDUP_CELLS {
        let mut cells = Vec::new();
        for (env, base) in [
            (env_wd, &env_wd.dataset),
            (env_db, &env_db.dataset),
            (env_wd, &tough),
        ] {
            let mut orig_sum = 0.0;
            let mut el_sum = 0.0;
            const VARIANTS: u64 = 5;
            for v in 0..VARIANTS {
                let ds = with_alias_substitution(base, &env.synth, MASTER_SEED + 40 + v);
                let (o, e) = noisy_cell(env, &ds, task, system);
                orig_sum += o;
                el_sum += e;
            }
            cells.push((orig_sum / VARIANTS as f64, el_sum / VARIANTS as f64));
        }
        let _ = writeln!(
            out,
            "| {} | {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} |",
            task, system, cells[0].0, cells[0].1, cells[1].0, cells[1].1, cells[2].0, cells[2].1
        );
    }
    out
}

// ------------------------------------------------------------------
// Table VII — varying the embedding algorithm
// ------------------------------------------------------------------

/// Table VII: swapping the embedding generation algorithm under the CEA
/// task (EmbLookup vs word2vec, fastText, BERT-mini, LSTM).
pub fn table7(env: &Env) -> String {
    let mut out = String::from("## Table VII — varying the embedding algorithm (CEA hit@10 F)\n\n");
    let kg = &env.synth.kg;
    let corpus = Corpus::from_kg(kg);

    // workloads: clean + fully-noised mention queries
    let clean: Vec<(String, emblookup_kg::EntityId)> = env
        .dataset
        .tables
        .iter()
        .flat_map(|t| {
            t.entity_cells()
                .filter_map(|(_, _, c)| c.truth.map(|t| (c.text.clone(), t)))
                .collect::<Vec<_>>()
        })
        .collect();
    let noisy_ds = with_noise(&env.dataset, 0.9999, MASTER_SEED + 7);
    let noisy: Vec<(String, emblookup_kg::EntityId)> = noisy_ds
        .tables
        .iter()
        .flat_map(|t| {
            t.entity_cells()
                .filter_map(|(_, _, c)| c.truth.map(|t| (c.text.clone(), t)))
                .collect::<Vec<_>>()
        })
        .collect();
    let clean_refs: Vec<(&str, emblookup_kg::EntityId)> =
        clean.iter().map(|(s, id)| (s.as_str(), *id)).collect();
    let noisy_refs: Vec<(&str, emblookup_kg::EntityId)> =
        noisy.iter().map(|(s, id)| (s.as_str(), *id)).collect();

    let _ = writeln!(out, "| Embedding | F (no error) | F (error) |");
    let _ = writeln!(out, "|---|---|---|");
    let _ = writeln!(
        out,
        "| EmbLookup | {:.2} | {:.2} |",
        hit_rate_at_k(&env.el, &clean_refs, 10),
        hit_rate_at_k(&env.el, &noisy_refs, 10)
    );

    let w2v = EncoderIndex::build(
        Word2Vec::train(&corpus, Word2VecConfig { epochs: 10, seed: MASTER_SEED, ..Default::default() }),
        kg,
    );
    let ft = EncoderIndex::build(
        FastText::train(&corpus, FastTextConfig { epochs: 30, seed: MASTER_SEED, ..Default::default() }),
        kg,
    );
    // BERT-mini / LSTM are expensive to train; cap their corpora
    let strings: Vec<String> = kg
        .entities()
        .flat_map(|e| std::iter::once(e.label.clone()).chain(e.aliases.iter().cloned()))
        .take(3000)
        .collect();
    let bert = EncoderIndex::build(
        BertMini::train(&strings, BertMiniConfig { epochs: 2, seed: MASTER_SEED, ..Default::default() }),
        kg,
    );
    let pairs: Vec<(String, String)> = kg
        .entities()
        .filter(|e| !e.aliases.is_empty())
        .map(|e| (e.label.clone(), e.aliases[0].clone()))
        .take(1500)
        .collect();
    let negatives: Vec<String> = kg.entities().map(|e| e.label.clone()).collect();
    let lstm = EncoderIndex::build(
        LstmEncoder::train(
            &pairs,
            &negatives,
            LstmEncoderConfig { epochs: 2, seed: MASTER_SEED, ..Default::default() },
        ),
        kg,
    );

    for svc in [
        &w2v as &dyn LookupService,
        &ft as &dyn LookupService,
        &bert as &dyn LookupService,
        &lstm as &dyn LookupService,
    ] {
        let _ = writeln!(
            out,
            "| {} | {:.2} | {:.2} |",
            svc.name(),
            hit_rate_at_k(svc, &clean_refs, 10),
            hit_rate_at_k(svc, &noisy_refs, 10)
        );
    }
    out
}

// ------------------------------------------------------------------
// Table VIII — embedding dimension sweep
// ------------------------------------------------------------------

/// Table VIII: varying the embedding dimension (uncompressed index to
/// isolate the effect from quantization).
pub fn table8(scale: Scale) -> String {
    let mut out = String::from("## Table VIII — varying the embedding dimension\n\n");
    // sensitivity sweeps retrain the model per configuration; they run on
    // the small KG with the full training budget so four trainings stay
    // tractable on one core (trends, not absolute values — EXPERIMENTS.md)
    let synth = generate(Scale::Smoke.kg_config(KgFlavor::Wikidata));
    let ds = generate_dataset(
        &synth,
        &Scale::Smoke.dataset_config(DatasetConfig::st_wikidata(MASTER_SEED + 1)),
    );
    let noisy = with_noise(&ds, 0.9999, MASTER_SEED + 8);
    let clean_q: Vec<(String, emblookup_kg::EntityId)> = queries_of(&ds);
    let noisy_q: Vec<(String, emblookup_kg::EntityId)> = queries_of(&noisy);

    let _ = writeln!(out, "| Dimension | F (no error) | F (error) |");
    let _ = writeln!(out, "|---|---|---|");
    for dim in [32usize, 64, 128, 256] {
        let config = EmbLookupConfig {
            embedding_dim: dim,
            compression: Compression::None,
            ..scale.emblookup_config()
        };
        let _ = &scale;
        let el = EmbLookup::train_on(&synth.kg, config);
        let c: Vec<(&str, emblookup_kg::EntityId)> =
            clean_q.iter().map(|(s, id)| (s.as_str(), *id)).collect();
        let n: Vec<(&str, emblookup_kg::EntityId)> =
            noisy_q.iter().map(|(s, id)| (s.as_str(), *id)).collect();
        let tag = if dim == 64 { "64 (default)" } else { &dim.to_string() };
        let _ = writeln!(
            out,
            "| {} | {:.2} | {:.2} |",
            tag,
            hit_rate_at_k(&el, &c, 10),
            hit_rate_at_k(&el, &n, 10)
        );
    }
    out
}

fn queries_of(ds: &Dataset) -> Vec<(String, emblookup_kg::EntityId)> {
    ds.tables
        .iter()
        .flat_map(|t| {
            t.entity_cells()
                .filter_map(|(_, _, c)| c.truth.map(|t| (c.text.clone(), t)))
                .collect::<Vec<_>>()
        })
        .collect()
}

// ------------------------------------------------------------------
// Figure 3 — number of triplets per entity
// ------------------------------------------------------------------

/// Figure 3: accuracy of the four tasks and training time as the triplet
/// budget per entity grows (paper sweeps 25–1000 at Wikidata scale; we
/// sweep a proportionally scaled range).
pub fn fig3(scale: Scale) -> String {
    let mut out = String::from("## Figure 3 — impact of the number of training triplets\n\n");
    // same sensitivity-scale setup as Table VIII (see comment there)
    let synth = generate(Scale::Smoke.kg_config(KgFlavor::Wikidata));
    let ds = generate_dataset(
        &synth,
        &Scale::Smoke.dataset_config(DatasetConfig::st_wikidata(MASTER_SEED + 1)),
    );
    let kg = &synth.kg;
    let k = emblookup_semtab::DEFAULT_K;

    let _ = writeln!(out, "| Triplets/entity | CEA | CTA | EA | DR | Train time |");
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    let budgets: &[usize] = match scale {
        Scale::Smoke => &[5, 10, 25],
        Scale::Full => &[5, 10, 25, 50],
    };
    for &budget in budgets {
        let config = EmbLookupConfig {
            triplets_per_entity: budget,
            ..scale.emblookup_config()
        };
        let start = Instant::now();
        let el = EmbLookup::train_on(kg, config);
        let train_time = start.elapsed();
        let cea = run_cea(kg, &ds, &BbwSystem, &el, k).f1();
        let cta = run_cta(kg, &ds, &BbwSystem, &el, k).f1();
        let ea = run_entity_disambiguation(kg, &ds, &DoSerSystem::default(), &el, k).f1();
        let broken = with_missing(&ds, 0.10, MASTER_SEED + 9);
        let dr = run_data_repair(kg, &broken, &KataraSystem, &el, k).f1();
        let _ = writeln!(
            out,
            "| {} | {:.2} | {:.2} | {:.2} | {:.2} | {} |",
            budget, cea, cta, ea, dr, fmt_duration(train_time)
        );
    }
    out
}

// ------------------------------------------------------------------
// Figure 4 — PQ recall vs k
// ------------------------------------------------------------------

/// Figure 4: recall of the PQ-compressed index against the uncompressed
/// index as a function of `k` — low at small `k`, recovering for the
/// larger `k` the downstream applications use.
pub fn fig4(env: &Env) -> String {
    let mut out = String::from("## Figure 4 — impact of compression on recall\n\n");
    let queries: Vec<(String, emblookup_kg::EntityId)> = queries_of(&env.dataset);
    let _ = writeln!(out, "| k | Recall of EL vs EL-NC |");
    let _ = writeln!(out, "|---|---|");
    for k in [1usize, 2, 5, 10, 20, 50, 100] {
        let mut recall_sum = 0.0;
        let total = queries.len().min(400);
        for (q, _) in queries.iter().take(total) {
            let truth: Vec<_> = env
                .el_nc
                .lookup_with_distances(q, k)
                .into_iter()
                .map(|(e, _)| e)
                .collect();
            let got: Vec<_> = env
                .el
                .lookup_with_distances(q, k)
                .into_iter()
                .map(|(e, _)| e)
                .collect();
            if truth.is_empty() {
                continue;
            }
            let inter = truth.iter().filter(|e| got.contains(e)).count();
            recall_sum += inter as f64 / truth.len() as f64;
        }
        let _ = writeln!(out, "| {} | {:.3} |", k, recall_sum / total as f64);
    }
    out
}

// ------------------------------------------------------------------
// Figure 5 — PQ vs PCA at matched byte budgets
// ------------------------------------------------------------------

/// Figure 5: compression scheme comparison at equal storage budgets —
/// product quantization vs PCA, on the CEA and CTA tasks (bbw system).
pub fn fig5(env: &Env) -> String {
    let mut out = String::from("## Figure 5 — PQ vs PCA at matched byte budgets\n\n");
    let kg = &env.synth.kg;
    let ds = &env.dataset;
    let k = emblookup_semtab::DEFAULT_K;
    let model = env.el_nc.model_arc();
    let _ = writeln!(out, "| Bytes/entity | CEA (PQ) | CEA (PCA) | CTA (PQ) | CTA (PCA) |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    // PQ stores m bytes (ks=256); PCA stores k f32 = 4k bytes
    for bytes in [8usize, 16, 32, 64] {
        let pq = EmbLookup::from_model(
            model.clone(),
            kg,
            Compression::Pq { m: bytes, ks: 256 },
        );
        let pca = EmbLookup::from_model(
            model.clone(),
            kg,
            Compression::Pca { k: (bytes / 4).max(1) },
        );
        let cea_pq = run_cea(kg, ds, &BbwSystem, &pq, k).f1();
        let cea_pca = run_cea(kg, ds, &BbwSystem, &pca, k).f1();
        let cta_pq = run_cta(kg, ds, &BbwSystem, &pq, k).f1();
        let cta_pca = run_cta(kg, ds, &BbwSystem, &pca, k).f1();
        let _ = writeln!(
            out,
            "| {} | {:.2} | {:.2} | {:.2} | {:.2} |",
            bytes, cea_pq, cea_pca, cta_pq, cta_pca
        );
    }
    // 256 B = uncompressed reference
    let cea_flat = run_cea(kg, ds, &BbwSystem, &env.el_nc, k).f1();
    let cta_flat = run_cta(kg, ds, &BbwSystem, &env.el_nc, k).f1();
    let _ = writeln!(out, "| 256 (none) | {cea_flat:.2} | {cea_flat:.2} | {cta_flat:.2} | {cta_flat:.2} |");
    out
}

// ------------------------------------------------------------------
// Index-size comparison (§IV-D discussion)
// ------------------------------------------------------------------

/// The storage comparison of §IV-D: EmbLookup's compressed index vs an
/// ElasticSearch index with and without aliases.
pub fn index_sizes(env: &Env) -> String {
    let mut out = String::from("## Index sizes (§IV-D)\n\n");
    let kg = &env.synth.kg;
    let elastic_labels = ElasticLikeService::new(kg, false);
    let elastic_aliases = ElasticLikeService::new(kg, true);
    let _ = writeln!(out, "| Index | Bytes |");
    let _ = writeln!(out, "|---|---|");
    let _ = writeln!(out, "| EmbLookup PQ (EL) | {} |", env.el.index().nbytes());
    let _ = writeln!(out, "| EmbLookup flat (EL-NC) | {} |", env.el_nc.index().nbytes());
    let _ = writeln!(out, "| ElasticLike labels only | {} |", elastic_labels.nbytes());
    let _ = writeln!(out, "| ElasticLike labels+aliases | {} |", elastic_aliases.nbytes());
    out
}

// ------------------------------------------------------------------
// Ablation — design choices (beyond the paper; DESIGN.md §6)
// ------------------------------------------------------------------

/// Ablation of EmbLookup's design choices: triplet-mining families,
/// output L2 normalization, and the §III-C alias-indexing option.
/// Reported as typo / alias hit@10 on the sensitivity-scale KG.
pub fn ablation(scale: Scale) -> String {
    use emblookup_core::{mine_triplets, EmbLookupModel, MiningConfig, TripletFamily};
    use emblookup_embed::FastText as Ft;

    let mut out = String::from("## Ablation — mining families, normalization, alias indexing\n\n");
    let synth = generate(Scale::Smoke.kg_config(KgFlavor::Wikidata));
    let kg = &synth.kg;
    let base_config = scale.emblookup_config();

    // shared semantic leg: train fastText once
    let corpus = Corpus::from_kg(kg);
    let fasttext = FastText::train(
        &corpus,
        FastTextConfig {
            dim: base_config.fasttext_dim,
            epochs: base_config.fasttext_epochs,
            seed: base_config.seed,
            ..Default::default()
        },
    );
    let ft_bytes = fasttext.to_bytes();

    // workloads
    let mut rng = rand::rngs::StdRng::seed_from_u64(MASTER_SEED + 70);
    use rand::SeedableRng as _;
    let injector = emblookup_text::NoiseInjector::typos();
    let typo_q: Vec<(String, emblookup_kg::EntityId)> = kg
        .entities()
        .take(300)
        .map(|e| (injector.corrupt(&e.label, &mut rng), e.id))
        .collect();
    let alias_q: Vec<(String, emblookup_kg::EntityId)> = kg
        .entities()
        .filter(|e| !e.aliases.is_empty())
        .take(300)
        .map(|e| (e.aliases[0].clone(), e.id))
        .collect();

    let all = vec![
        TripletFamily::Semantic,
        TripletFamily::Syntactic,
        TripletFamily::TypeSharing,
    ];
    use emblookup_core::LossKind;
    let variants: Vec<(&str, Vec<TripletFamily>, bool, bool, LossKind)> = vec![
        ("full model", all.clone(), true, false, LossKind::Triplet),
        ("no syntactic triplets", vec![TripletFamily::Semantic, TripletFamily::TypeSharing], true, false, LossKind::Triplet),
        ("no semantic triplets", vec![TripletFamily::Syntactic, TripletFamily::TypeSharing], true, false, LossKind::Triplet),
        ("no type-sharing triplets", vec![TripletFamily::Semantic, TripletFamily::Syntactic], true, false, LossKind::Triplet),
        ("no L2 normalization", all.clone(), false, false, LossKind::Triplet),
        ("contrastive loss (future work)", all.clone(), true, false, LossKind::Contrastive),
        ("alias-indexed (§III-C option)", all, true, true, LossKind::Triplet),
    ];

    let _ = writeln!(out, "| Variant | Typo hit@10 | Alias hit@10 | Index rows |");
    let _ = writeln!(out, "|---|---|---|---|");
    for (name, families, normalize, index_aliases, loss) in variants {
        let config = EmbLookupConfig {
            l2_normalize: normalize,
            index_aliases,
            loss,
            compression: Compression::None,
            ..base_config.clone()
        };
        #[expect(clippy::expect_used, reason = "round-trips bytes serialized two lines up; failure means a serializer bug")]
        let semantic = Ft::from_bytes(&ft_bytes).expect("fastText round trip");
        let mut model = EmbLookupModel::new(semantic, config.clone());
        let mining = MiningConfig {
            families,
            ..MiningConfig::with_budget(config.triplets_per_entity, config.seed)
        };
        let triplets = mine_triplets(kg, &mining);
        emblookup_core::train(&mut model, &triplets);
        let service = EmbLookup::from_model(std::sync::Arc::new(model), kg, Compression::None);
        let t: Vec<(&str, emblookup_kg::EntityId)> =
            typo_q.iter().map(|(s, id)| (s.as_str(), *id)).collect();
        let a: Vec<(&str, emblookup_kg::EntityId)> =
            alias_q.iter().map(|(s, id)| (s.as_str(), *id)).collect();
        let _ = writeln!(
            out,
            "| {} | {:.3} | {:.3} | {} |",
            name,
            hit_rate_at_k(&service, &t, 10),
            hit_rate_at_k(&service, &a, 10),
            service.index().len(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use emblookup_kg::SynthKgConfig;

    #[test]
    fn gpu_time_divides() {
        assert_eq!(gpu_time(Duration::from_secs(4)), Duration::from_secs(1));
    }

    #[test]
    fn original_service_mapping_is_total() {
        let s = generate(SynthKgConfig::tiny(50));
        for system in ["bbw", "MantisTable", "JenTab", "DoSeR", "Katara"] {
            let svc = original_service(system, &s.kg);
            assert!(!svc.name().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "unknown system")]
    fn unknown_system_panics() {
        let s = generate(SynthKgConfig::tiny(51));
        let _ = original_service("nope", &s.kg);
    }
}
