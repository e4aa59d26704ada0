//! Two-phase triplet training (§III-B "Model Training Procedure").
//!
//! The first half of the epochs trains offline on every mined triplet; the
//! second half mines online, keeping only the *hard* (`d(a,n) < d(a,p)`)
//! and *semi-hard* (`d(a,p) < d(a,n) < d(a,p) + margin`) triplets whose
//! loss is non-zero, which keeps easy triplets from diluting the gradient.

use crate::mining::Triplet;
use crate::model::EmbLookupModel;
use emblookup_ann::sq_l2;
use emblookup_obs::names;
use emblookup_tensor::loss;
use emblookup_tensor::optim::{Adam, GradBuffer, Optimizer};
use emblookup_tensor::{Bindings, Graph, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// Triplets per micro-batch graph. Each micro-batch builds its own tape
/// (possibly on the compute pool) and its gradients merge in index order
/// before a single optimizer step, so the size is a fixed constant — never
/// derived from the thread count — to keep training bit-identical across
/// `EMBLOOKUP_THREADS` settings.
const MICRO_BATCH: usize = 32;

/// Per-epoch training statistics.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Epoch number (0-based).
    pub epoch: usize,
    /// Mean triplet loss over the triplets trained this epoch.
    pub mean_loss: f32,
    /// Number of triplets trained (shrinks in the online phase).
    pub active_triplets: usize,
    /// True for the online hard-mining phase.
    pub online_phase: bool,
}

/// Full training report.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// One entry per epoch.
    pub epochs: Vec<EpochStats>,
}

impl TrainReport {
    /// Mean loss of the final epoch, or `f32::NAN` before training.
    pub fn final_loss(&self) -> f32 {
        self.epochs.last().map(|e| e.mean_loss).unwrap_or(f32::NAN)
    }
}

/// Trains `model` in place on `triplets` according to its config.
///
/// # Panics
/// Panics when `triplets` is empty.
pub fn train(model: &mut EmbLookupModel, triplets: &[Triplet]) -> TrainReport {
    assert!(!triplets.is_empty(), "training without triplets");
    let config = model.config().clone();
    let _span = emblookup_obs::Span::enter(names::TRAIN_TRIPLET);
    let reg = emblookup_obs::global();
    let epoch_hist = reg.histogram(names::TRAIN_EPOCH_DURATION);
    let epoch_counter = reg.counter(names::TRAIN_EPOCHS);
    // offset keeps the trainer's RNG stream distinct from the miner's
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x7EA11));
    let mut optimizer = Adam::new(config.lr);
    let mut report = TrainReport::default();
    let offline_epochs = config.epochs / 2 + config.epochs % 2;

    let observe_epoch = |start: std::time::Instant| {
        epoch_hist.record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        epoch_counter.inc();
    };

    let mut order: Vec<usize> = (0..triplets.len()).collect();
    for epoch in 0..config.epochs {
        let epoch_start = std::time::Instant::now();
        let online = epoch >= offline_epochs;
        let active: Vec<usize> = if online {
            select_hard(model, triplets, config.margin)
        } else {
            order.shuffle(&mut rng);
            order.clone()
        };
        if active.is_empty() {
            // every triplet is easy — converged
            observe_epoch(epoch_start);
            report.epochs.push(EpochStats {
                epoch,
                mean_loss: 0.0,
                active_triplets: 0,
                online_phase: online,
            });
            continue;
        }
        let mut epoch_loss = 0.0f64;
        for chunk in active.chunks(config.batch_size) {
            let micros: Vec<&[usize]> = chunk.chunks(MICRO_BATCH).collect();
            let shared: &EmbLookupModel = model;
            let outs: Vec<(f64, GradBuffer)> = emblookup_pool::Pool::global()
                .parallel_map(micros.len(), 1, |mi| {
                    run_micro_batch(shared, triplets, micros[mi])
                });
            // summed micro-batch gradients, folded in index order then
            // scaled, reproduce the old single-graph batch mean exactly
            let mut merged = GradBuffer::new();
            for (loss_sum, grads) in &outs {
                epoch_loss += loss_sum;
                merged.merge(grads);
            }
            merged.scale(1.0 / chunk.len() as f32);
            optimizer.step_grads(&mut model.store, &merged);
        }
        observe_epoch(epoch_start);
        report.epochs.push(EpochStats {
            epoch,
            mean_loss: (epoch_loss / active.len() as f64) as f32,
            active_triplets: active.len(),
            online_phase: online,
        });
    }
    report
}

/// Records one mention's forward pass, reusing the graph nodes of an
/// earlier identical mention in the same micro-batch. Triplet mining
/// repeats anchors heavily (`triplets_per_entity` triplets share one
/// anchor), so sharing the subgraph removes most forward legs; gradients
/// still accumulate correctly because backward sums over every fan-out of
/// the shared node.
fn memo_forward<'t>(
    model: &EmbLookupModel,
    g: &mut Graph,
    b: &mut Bindings,
    memo: &mut HashMap<&'t str, Var>,
    s: &'t str,
) -> Var {
    if let Some(v) = memo.get(s) {
        return *v;
    }
    let v = model.forward(g, b, s);
    memo.insert(s, v);
    v
}

/// Builds one micro-batch's graph, backpropagates its *summed* loss, and
/// returns that sum together with the collected gradients. Dividing the
/// merged gradients by the full batch length afterwards recovers the
/// batch-mean update.
fn run_micro_batch(
    model: &EmbLookupModel,
    triplets: &[Triplet],
    micro: &[usize],
) -> (f64, GradBuffer) {
    let config = model.config();
    let mut g = Graph::new();
    let mut b = Bindings::new();
    let mut memo: HashMap<&str, Var> = HashMap::new();
    let mut total: Option<Var> = None;
    for &i in micro {
        let t = &triplets[i];
        let ea = memo_forward(model, &mut g, &mut b, &mut memo, &t.anchor);
        let ep = memo_forward(model, &mut g, &mut b, &mut memo, &t.positive);
        let en = memo_forward(model, &mut g, &mut b, &mut memo, &t.negative);
        let l = match config.loss {
            crate::config::LossKind::Triplet => {
                loss::triplet(&mut g, ea, ep, en, config.margin)
            }
            crate::config::LossKind::Contrastive => {
                loss::contrastive_triplet(&mut g, ea, ep, en, config.margin)
            }
        };
        total = Some(match total {
            Some(acc) => g.add(acc, l),
            None => l,
        });
    }
    let Some(total) = total else {
        return (0.0, GradBuffer::new());
    };
    g.backward(total);
    (f64::from(g.value(total).item()), GradBuffer::from_graph(&g, &b))
}

/// Indices of triplets with non-zero loss under the current model — the
/// hard and semi-hard set of the paper's online phase. Embeddings are
/// computed once per distinct mention through the fast inference path,
/// fanned out over the compute pool.
fn select_hard(model: &EmbLookupModel, triplets: &[Triplet], margin: f32) -> Vec<usize> {
    // embed each distinct mention once; keys borrow from `triplets`
    let mut distinct: Vec<&str> = Vec::new();
    let mut cache: HashMap<&str, Vec<f32>> = HashMap::new();
    for t in triplets {
        for s in [t.anchor.as_str(), t.positive.as_str(), t.negative.as_str()] {
            if !cache.contains_key(s) {
                cache.insert(s, Vec::new());
                distinct.push(s);
            }
        }
    }
    let embedded = model.embed_batch(&distinct, emblookup_pool::default_threads());
    for (s, e) in distinct.into_iter().zip(embedded) {
        cache.insert(s, e);
    }
    triplets
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            let a = &cache[t.anchor.as_str()];
            let p = &cache[t.positive.as_str()];
            let n = &cache[t.negative.as_str()];
            let d_ap = sq_l2(a, p);
            let d_an = sq_l2(a, n);
            d_an < d_ap + margin // hard or semi-hard
        })
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmbLookupConfig;
    use crate::mining::{mine_triplets, MiningConfig};
    use emblookup_embed::{Corpus, FastText, FastTextConfig};
    use emblookup_kg::{generate, SynthKgConfig};

    fn setup() -> (EmbLookupModel, Vec<Triplet>) {
        let s = generate(SynthKgConfig::tiny(5));
        let corpus = Corpus::from_kg(&s.kg);
        let ft = FastText::train(
            &corpus,
            FastTextConfig { dim: 16, buckets: 1 << 11, epochs: 2, ..Default::default() },
        );
        let model = EmbLookupModel::new(ft, EmbLookupConfig::tiny(5));
        let triplets = mine_triplets(&s.kg, &MiningConfig::with_budget(6, 5));
        (model, triplets)
    }

    #[test]
    fn loss_decreases_over_training() {
        let (mut model, triplets) = setup();
        let report = train(&mut model, &triplets);
        assert_eq!(report.epochs.len(), 4);
        let first = report.epochs[0].mean_loss;
        let last = report.final_loss();
        assert!(
            last < first,
            "loss did not decrease: {first} -> {last}"
        );
    }

    #[test]
    fn online_phase_shrinks_active_set() {
        let (mut model, triplets) = setup();
        let report = train(&mut model, &triplets);
        let offline = &report.epochs[0];
        let online = report.epochs.iter().find(|e| e.online_phase).unwrap();
        assert!(!offline.online_phase);
        assert!(online.active_triplets <= triplets.len());
    }

    #[test]
    fn training_moves_alias_closer_than_random() {
        let (mut model, triplets) = setup();
        train(&mut model, &triplets);
        // pick a mined semantic triplet and check the margin direction
        let t = &triplets[0];
        let a = model.embed(&t.anchor);
        let p = model.embed(&t.positive);
        let n = model.embed(&t.negative);
        // not guaranteed per-triplet, but statistically over several:
        let mut wins = 0;
        let mut total = 0;
        for t in triplets.iter().take(40) {
            let a = model.embed(&t.anchor);
            let p = model.embed(&t.positive);
            let n = model.embed(&t.negative);
            if sq_l2(&a, &p) < sq_l2(&a, &n) {
                wins += 1;
            }
            total += 1;
        }
        let _ = (a, p, n);
        assert!(
            wins * 3 >= total * 2,
            "only {wins}/{total} triplets satisfied after training"
        );
    }

    #[test]
    #[should_panic(expected = "without triplets")]
    fn empty_triplets_panics() {
        let (mut model, _) = setup();
        train(&mut model, &[]);
    }
}
