//! Integration matrix: every annotation system × several lookup services
//! over a shared dataset, verifying sane accuracy and clean interop.

use emblookup::baselines::{
    ElasticLikeService, ExactMatchService, FuzzyWuzzyService, LevenshteinService, QGramService,
    RemoteCostModel, RemoteService,
};
use emblookup::prelude::*;
use emblookup::semtab::{
    run_data_repair, run_entity_disambiguation, with_missing, with_noise, AnnotationSystem,
    BbwSystem, DoSerSystem, JenTabSystem, KataraSystem, MantisTableSystem,
};

struct Fixture {
    synth: emblookup::kg::SynthKg,
    dataset: emblookup::semtab::Dataset,
}

fn fixture() -> Fixture {
    let synth = generate(SynthKgConfig::small(200));
    let dataset = generate_dataset(&synth, &DatasetConfig::tiny(200));
    Fixture { synth, dataset }
}

fn services(kg: &KnowledgeGraph) -> Vec<Box<dyn LookupService + '_>> {
    vec![
        Box::new(ExactMatchService::new(kg, false)),
        Box::new(LevenshteinService::new(kg, false, 3)),
        Box::new(QGramService::new(kg, false, 3)),
        Box::new(FuzzyWuzzyService::new(kg)),
        Box::new(ElasticLikeService::new(kg, false)),
        Box::new(RemoteService::new(
            ExactMatchService::new(kg, true),
            RemoteCostModel::wikidata(),
            "Wikidata API",
        )),
    ]
}

#[test]
fn every_sta_system_works_with_every_service() {
    let f = fixture();
    let systems: Vec<Box<dyn AnnotationSystem>> = vec![
        Box::new(BbwSystem),
        Box::new(MantisTableSystem),
        Box::new(JenTabSystem),
    ];
    for system in &systems {
        for service in services(&f.synth.kg) {
            let (cea, cta) =
                run_cea_cta(&f.synth.kg, &f.dataset, system.as_ref(), service.as_ref(), 10);
            assert!(
                cea.f1() > 0.7,
                "{} + {} CEA F1 {} too low on clean data",
                system.name(),
                service.name(),
                cea.f1()
            );
            assert!(
                cta.f1() > 0.5,
                "{} + {} CTA F1 {} too low on clean data",
                system.name(),
                service.name(),
                cta.f1()
            );
        }
    }
}

#[test]
fn doser_and_katara_work_with_every_service() {
    let f = fixture();
    let broken = with_missing(&f.dataset, 0.2, 201);
    for service in services(&f.synth.kg) {
        let ea = run_entity_disambiguation(
            &f.synth.kg,
            &f.dataset,
            &DoSerSystem,
            service.as_ref(),
            10,
        );
        assert!(
            ea.f1() > 0.6,
            "DoSeR + {} EA F1 {} too low",
            service.name(),
            ea.f1()
        );
        let dr = run_data_repair(&f.synth.kg, &broken, &KataraSystem, service.as_ref(), 10);
        assert!(
            dr.f1() > 0.3,
            "Katara + {} DR F1 {} too low",
            service.name(),
            dr.f1()
        );
    }
}

#[test]
fn noise_hurts_exact_match_most() {
    let f = fixture();
    let noisy = with_noise(&f.dataset, 0.8, 202);
    let exact = ExactMatchService::new(&f.synth.kg, false);
    let lev = LevenshteinService::new(&f.synth.kg, false, 3);
    let f_exact = run_cea_cta(&f.synth.kg, &noisy, &BbwSystem, &exact, 10).0.f1();
    let f_lev = run_cea_cta(&f.synth.kg, &noisy, &BbwSystem, &lev, 10).0.f1();
    assert!(
        f_exact < f_lev,
        "exact ({f_exact}) should collapse harder than Levenshtein ({f_lev})"
    );
}

#[test]
fn remote_service_charges_latency_in_system_runs() {
    let f = fixture();
    let remote = RemoteService::new(
        ExactMatchService::new(&f.synth.kg, true),
        RemoteCostModel::wikidata(),
        "Wikidata API",
    );
    let local = ExactMatchService::new(&f.synth.kg, true);
    let (r_remote, _) = run_cea_cta(&f.synth.kg, &f.dataset, &BbwSystem, &remote, 10);
    let (r_local, _) = run_cea_cta(&f.synth.kg, &f.dataset, &BbwSystem, &local, 10);
    assert!(
        r_remote.lookup_time > r_local.lookup_time * 5,
        "remote lookup time {:?} not dominated by simulated latency (local {:?})",
        r_remote.lookup_time,
        r_local.lookup_time
    );
    // identical accuracy: same inner matcher
    assert!((r_remote.f1() - r_local.f1()).abs() < 1e-9);
}
