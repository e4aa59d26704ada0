//! Two-phase triplet training (§III-B "Model Training Procedure").
//!
//! The first half of the epochs trains offline on every mined triplet; the
//! second half mines online, keeping only the triplets whose loss is
//! non-zero — under the paper's triplet loss the *hard*
//! (`d(a,n) < d(a,p)`) and *semi-hard* (`d(a,p) < d(a,n) < d(a,p) + margin`)
//! ones — which keeps easy triplets from diluting the gradient.

use crate::config::MARGIN;
use crate::mining::Triplet;
use crate::model::{EmbLookupModel, EncodeScratch};
use emblookup_ann::sq_l2;
use emblookup_obs::names;
use emblookup_tensor::loss;
use emblookup_tensor::optim::{Adam, GradBuffer};
use emblookup_tensor::{Graph, Tensor, Var};
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
            select_hard(model, triplets)
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

std::thread_local! {
    /// This thread's activation records and backward memory, taken out for
    /// one micro-batch and put back after it.
    static TRAIN: std::cell::RefCell<EncodeScratch> = std::cell::RefCell::default();
}

/// One micro-batch — the triplets `micro` names — under the current
/// weights: its *summed* loss and the gradients of that sum. [`train`]
/// runs a batch as micro-batches of a fixed size and divides their merged
/// gradients by the batch length, which recovers the batch-mean update.
///
/// Each distinct mention is encoded once, in order of first appearance,
/// by the encoder's forward pass ([`EmbLookupModel::encode`]) —
/// triplet mining repeats anchors heavily, so most legs are shared. Only
/// the embeddings go on a tape, as leaves, with the loss over them; its
/// backward pass yields each embedding's gradient, which
/// [`EmbLookupModel::backprop`] takes through the encoder, mentions in
/// reverse first-appearance order — the order a tape of the whole encoder
/// reaches them in — so every gradient is that tape's bits.
///
/// Public only so that the allocation-budget test can drive one warm
/// micro-batch; not part of the supported API.
#[doc(hidden)]
pub fn run_micro_batch(
    model: &EmbLookupModel,
    triplets: &[Triplet],
    micro: &[usize],
) -> (f64, GradBuffer) {
    let config = model.config();
    let mut scratch = TRAIN.take();
    scratch.clear();
    let mut g = Graph::new();
    let mut leaves: Vec<Var> = Vec::new();
    let mut memo: HashMap<&str, Var> = HashMap::new();
    let mut legs: Vec<[Var; 3]> = Vec::with_capacity(micro.len());
    let encode = emblookup_obs::Span::enter(names::TRAIN_TRIPLET_ENCODE);
    for &i in micro {
        let t = &triplets[i];
        legs.push([&t.anchor, &t.positive, &t.negative].map(|s| {
            *memo.entry(s.as_str()).or_insert_with(|| {
                let leaf = g.leaf(Tensor::vector(model.encode(s, &mut scratch)));
                leaves.push(leaf);
                leaf
            })
        }));
    }
    drop(encode);

    let _backprop = emblookup_obs::Span::enter(names::TRAIN_TRIPLET_BACKPROP);
    let mut total: Option<Var> = None;
    for [ea, ep, en] in legs {
        let l = match config.loss {
            crate::config::LossKind::Triplet => loss::triplet(&mut g, ea, ep, en, MARGIN),
            crate::config::LossKind::Contrastive => loss::contrastive_triplet(&mut g, ea, ep, en, MARGIN),
        };
        total = Some(match total {
            Some(acc) => g.add(acc, l),
            None => l,
        });
    }
    let mut grads = GradBuffer::new();
    let Some(total) = total else {
        TRAIN.set(scratch);
        return (0.0, grads);
    };
    g.backward(total);
    for (n, &leaf) in leaves.iter().enumerate().rev() {
        if let Some(grad) = g.grad(leaf) {
            model.backprop(n, grad.data(), &mut scratch, &mut grads);
        }
    }
    TRAIN.set(scratch);
    (f64::from(g.value(total).item()), grads)
}

/// Indices of triplets with non-zero loss under the current model and its
/// configured loss — the paper's online phase. Embeddings are computed
/// once per distinct mention through the fast inference path, fanned out
/// over the compute pool.
fn select_hard(model: &EmbLookupModel, triplets: &[Triplet]) -> Vec<usize> {
    let config = model.config();
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
            config.loss.is_nonzero(sq_l2(a, p), sq_l2(a, n))
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

    /// The micro-batch as it was before the training pass: the whole
    /// encoder recorded on one tape, a mention's nodes shared by every
    /// triplet that repeats it — the oracle `run_micro_batch` must match
    /// bit for bit.
    fn run_micro_batch_reference(model: &EmbLookupModel, triplets: &[Triplet], micro: &[usize]) -> (f64, GradBuffer) {
        use emblookup_tensor::Bindings;
        let config = model.config();
        let mut g = Graph::new();
        let mut b = Bindings::new();
        let mut memo: HashMap<&str, Var> = HashMap::new();
        let mut total: Option<Var> = None;
        for &i in micro {
            let t = &triplets[i];
            let [ea, ep, en] = [&t.anchor, &t.positive, &t.negative]
                .map(|s| *memo.entry(s.as_str()).or_insert_with(|| model.forward(&mut g, &mut b, s)));
            let l = match config.loss {
                crate::config::LossKind::Triplet => loss::triplet(&mut g, ea, ep, en, MARGIN),
                crate::config::LossKind::Contrastive => loss::contrastive_triplet(&mut g, ea, ep, en, MARGIN),
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

    fn gradient_bits(grads: &GradBuffer) -> Vec<(String, Vec<usize>, Vec<u32>)> {
        grads.iter().map(|(id, t)| (format!("{id:?}"), t.shape().to_vec(), t.data().iter().map(|v| v.to_bits()).collect())).collect()
    }

    #[test]
    fn micro_batch_gradients_are_the_tape_gradients_bit_for_bit() {
        use crate::config::LossKind;
        use rand::Rng;
        let s = generate(SynthKgConfig::tiny(5));
        let corpus = Corpus::from_kg(&s.kg);
        let mut triplets = mine_triplets(&s.kg, &MiningConfig::with_budget(2, 5));
        triplets.truncate(20);
        let triplet = |a: &str, p: &str, n: &str| Triplet { anchor: a.into(), positive: p.into(), negative: n.into() };
        // a mention repeated within the micro-batch (anchor and positive of
        // one triplet, and again in others), a triplet whose loss is zero,
        // and the strings that take the encoder's odd branches: empty, one
        // character, longer than `max_len`, outside the alphabet
        let long = "the quick brown fox jumps over the lazy dog ".repeat(3);
        let crafted = [
            triplet("", "x", "日本語 Ünïcode"),
            triplet("x", "x", &long),
            triplet(&long, "", "x"),
            triplet("日本語 Ünïcode", "Straße (1990)", "x"),
            triplet("zzzzzzzzzzzz", "zzzzzzzzzzzz", "a"),
        ];
        let first_crafted = triplets.len();
        triplets.extend(crafted);

        let paper = EmbLookupConfig { compression: crate::config::Compression::None, ..EmbLookupConfig::fast(5) };
        for (arch, base) in [("tiny", EmbLookupConfig::tiny(5)), ("paper", paper)] {
            let ft = FastText::train(
                &corpus,
                FastTextConfig { dim: base.fasttext_dim, buckets: 1 << 11, epochs: 1, ..Default::default() },
            );
            let mut model = EmbLookupModel::new(ft, base.clone());
            // biases as training leaves them: none zero, and small enough
            // that the untrained encoders spread some mention past the
            // margin from "x" (at ±0.2 none is)
            let mut rng = StdRng::seed_from_u64(17);
            let ids: Vec<_> = model.store.iter().map(|p| p.0).collect();
            for id in ids {
                if model.store.name(id).ends_with(".b") {
                    model.store.get_mut(id).data_mut().iter_mut().for_each(|b| *b = rng.gen_range(-0.005..0.005));
                }
            }
            // the zero-loss triplet: "x" twice, and the mention farthest
            // from it, past the margin
            let x = model.embed("x");
            let far = triplets.iter().map(|t| t.negative.as_str()).max_by(|a, b| sq_l2(&x, &model.embed(a)).total_cmp(&sq_l2(&x, &model.embed(b))));
            let far = far.expect("triplets").to_string();
            let d_far = sq_l2(&x, &model.embed(&far));
            assert!(d_far >= MARGIN, "{arch}: the farthest mention is at {d_far}");
            let mut triplets = triplets.clone();
            triplets.push(triplet("x", "x", &far));
            let all: Vec<usize> = (0..triplets.len()).collect();
            for loss in [LossKind::Triplet, LossKind::Contrastive] {
                let config = EmbLookupConfig { loss, ..base.clone() };
                let model = EmbLookupModel::from_bytes(&model.to_bytes(), config).expect("same architecture");
                for micro in [&all[..], &all[first_crafted..], &all[..1], &all[3..9]] {
                    let (want_loss, want) = run_micro_batch_reference(&model, &triplets, micro);
                    let (got_loss, got) = run_micro_batch(&model, &triplets, micro);
                    let what = format!("{arch} {loss:?} micro {}..", micro[0]);
                    assert_eq!(got_loss.to_bits(), want_loss.to_bits(), "{what}: loss");
                    assert_eq!(want.iter().count(), model.store.len(), "{what}: the tape reaches every parameter");
                    assert_eq!(gradient_bits(&got), gradient_bits(&want), "{what}: gradients");
                }
            }
        }
    }

    #[test]
    fn online_phase_keeps_the_triplets_the_configured_loss_is_nonzero_on() {
        use crate::config::LossKind;
        let (model, mined) = setup();
        let triplet = |a: &str, p: &str, n: &str| Triplet { anchor: a.into(), positive: p.into(), negative: n.into() };
        let x = model.embed("x");
        let d = |s: &str| sq_l2(&x, &model.embed(s));
        // the mined mentions nearest to and farthest from "x"
        let mut mentions: Vec<&str> = mined.iter().map(|t| t.negative.as_str()).collect();
        mentions.sort_by(|a, b| d(a).total_cmp(&d(b)));
        let (p, n) = (mentions[0], mentions[mentions.len() - 1]);
        let (d_ap, d_an) = (d(p), d(n));
        assert!(d_ap > 0.0 && d_an >= d_ap + MARGIN, "d_ap {d_ap}, d_an {d_an}");
        // `d_an ≥ d_ap + margin`: zero triplet loss, but the contrastive
        // loss still pulls the positive; with the positive on the anchor
        // and the negative past `margin`, both losses are zero
        let triplets = [triplet("x", p, n), triplet("x", "x", n)];
        for (loss, kept) in [(LossKind::Triplet, vec![]), (LossKind::Contrastive, vec![0])] {
            let config = EmbLookupConfig { loss, ..model.config().clone() };
            let model = EmbLookupModel::from_bytes(&model.to_bytes(), config).expect("same architecture");
            assert_eq!(select_hard(&model, &triplets), kept, "{loss:?}");
        }
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
