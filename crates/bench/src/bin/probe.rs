//! Quick end-to-end quality probe (not part of the paper reproduction):
//! trains EmbLookup at smoke scale and prints hit@k / CEA numbers so the
//! developer can sanity-check model quality before running `repro`.

#![forbid(unsafe_code)]

use emblookup_baselines::{ElasticLikeService, ExactMatchService, LevenshteinService};
use emblookup_bench::harness::{hit_rate_at_k, Env, Scale};
use emblookup_kg::{KgFlavor, LookupService};
use emblookup_semtab::{run_cea, with_alias_substitution, with_noise, BbwSystem};
use std::time::Instant;

fn main() {
    emblookup_obs::init_from_env();
    let scale = if std::env::args().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Smoke
    };
    let t0 = Instant::now();
    let env = Env::build(KgFlavor::Wikidata, scale);
    println!(
        "built env: {} entities, {} tables, {} cells in {:.1?}",
        env.synth.kg.num_entities(),
        env.dataset.tables.len(),
        env.dataset.num_entity_cells(),
        t0.elapsed()
    );
    for e in &env.el_nc.report().epochs {
        println!(
            "  epoch {:>2} {} loss {:.4} active {}",
            e.epoch,
            if e.online_phase { "online " } else { "offline" },
            e.mean_loss,
            e.active_triplets
        );
    }

    // hit@10 on exact labels, typo'd labels, aliases
    let labels: Vec<(&str, emblookup_kg::EntityId)> = env
        .synth
        .kg
        .entities()
        .take(300)
        .map(|e| (e.label.as_str(), e.id))
        .collect();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let injector = emblookup_text::NoiseInjector::typos();
    let typod: Vec<(String, emblookup_kg::EntityId)> = labels
        .iter()
        .map(|&(l, id)| (injector.corrupt(l, &mut rng), id))
        .collect();
    let typod_refs: Vec<(&str, emblookup_kg::EntityId)> =
        typod.iter().map(|(s, id)| (s.as_str(), *id)).collect();
    let aliased: Vec<(String, emblookup_kg::EntityId)> = env
        .synth
        .kg
        .entities()
        .take(300)
        .filter(|e| !e.aliases.is_empty())
        .map(|e| (e.aliases[0].clone(), e.id))
        .collect();
    let alias_refs: Vec<(&str, emblookup_kg::EntityId)> =
        aliased.iter().map(|(s, id)| (s.as_str(), *id)).collect();

    for (name, svc) in [
        ("EL   ", &env.el as &dyn LookupService),
        ("EL-NC", &env.el_nc as &dyn LookupService),
    ] {
        println!(
            "{name} hit@10 exact {:.3} typo {:.3} alias {:.3}",
            hit_rate_at_k(svc, &labels, 10),
            hit_rate_at_k(svc, &typod_refs, 10),
            hit_rate_at_k(svc, &alias_refs, 10),
        );
    }
    let exact = ExactMatchService::new(&env.synth.kg, false);
    let lev = LevenshteinService::new(&env.synth.kg, false, 3);
    let elastic = ElasticLikeService::new(&env.synth.kg, false);
    for (name, svc) in [
        ("exact", &exact as &dyn LookupService),
        ("lev  ", &lev as &dyn LookupService),
        ("elast", &elastic as &dyn LookupService),
    ] {
        println!(
            "{name} hit@10 exact {:.3} typo {:.3} alias {:.3}",
            hit_rate_at_k(svc, &labels, 10),
            hit_rate_at_k(svc, &typod_refs, 10),
            hit_rate_at_k(svc, &alias_refs, 10),
        );
    }

    // CEA with bbw under the three dataset variants
    let noisy = with_noise(&env.dataset, 0.10, 7);
    let aliased_ds = with_alias_substitution(&env.dataset, &env.synth, 7);
    for (tag, ds) in [("clean", &env.dataset), ("noisy", &noisy), ("alias", &aliased_ds)] {
        let r_el = run_cea(&env.synth.kg, ds, &BbwSystem, &env.el, 20);
        let r_ex = run_cea(&env.synth.kg, ds, &BbwSystem, &elastic, 20);
        println!(
            "CEA/bbw {tag}: EL F1 {:.3} (lookup {:?}) | ElasticLike F1 {:.3} (lookup {:?})",
            r_el.f1(),
            r_el.lookup_time,
            r_ex.f1(),
            r_ex.lookup_time
        );
    }
    println!("\npipeline metrics:");
    println!("{}", emblookup_obs::global().snapshot().render_table());
    println!("total {:.1?}", t0.elapsed());
}
