//! Diagnostic: how well does each leg (fastText alone, full model) map
//! aliases and typos onto labels? Developer tool, not a paper experiment.

#![forbid(unsafe_code)]

use emblookup_ann::{FlatIndex, VectorSet};
use emblookup_embed::{Corpus, FastText, FastTextConfig, StringEncoder};
use emblookup_kg::{generate, KgFlavor, SynthKgConfig};

fn main() {
    let epochs: usize = std::env::var("FT_EPOCHS").ok().and_then(|v| v.parse().ok()).unwrap_or(3);
    let big = std::env::var("BIG").is_ok();
    let s = if big {
        generate(SynthKgConfig::benchmark(2022, KgFlavor::Wikidata))
    } else {
        generate(SynthKgConfig { flavor: KgFlavor::Wikidata, ..SynthKgConfig::small(2022) })
    };
    let corpus = Corpus::from_kg(&s.kg);
    println!("corpus: {} sentences, vocab {}", corpus.sentences.len(), corpus.vocab_size());
    let ft = FastText::train(&corpus, FastTextConfig { dim: 64, epochs, seed: 2022, ..Default::default() });

    let mut index = VectorSet::new(64);
    let labels: Vec<String> = s.kg.entities().map(|e| e.label.clone()).collect();
    for l in &labels {
        index.push(&ft.embed(l));
    }
    let flat = FlatIndex::new(index);

    let hit = |queries: &[(String, usize)]| -> f64 {
        let mut h = 0;
        for (q, truth) in queries {
            let hits = flat.search(&ft.embed(q), 10);
            if hits.iter().any(|n| n.index == *truth) {
                h += 1;
            }
        }
        h as f64 / queries.len() as f64
    };

    let alias_q: Vec<(String, usize)> = s.kg.entities().enumerate()
        .filter(|(_, e)| !e.aliases.is_empty())
        .map(|(i, e)| (e.aliases[0].clone(), i))
        .take(500)
        .collect();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let inj = emblookup_text::NoiseInjector::typos();
    let typo_q: Vec<(String, usize)> = labels.iter().enumerate()
        .map(|(i, l)| (inj.corrupt(l, &mut rng), i)).take(500).collect();
    let exact_q: Vec<(String, usize)> = labels.iter().enumerate()
        .map(|(i, l)| (l.clone(), i)).take(500).collect();
    println!("fastText-only hit@10: exact {:.3} typo {:.3} alias {:.3}",
        hit(&exact_q), hit(&typo_q), hit(&alias_q));
}
