//! Skip-gram with negative sampling (SGNS) — the training engine shared by
//! the word2vec and fastText baselines.
//!
//! Implemented with analytic gradients (as in the original C tools) rather
//! than the autograd tape: SGNS updates touch a handful of rows per pair,
//! and the closed-form gradient is both faster and simpler.
//!
//! A pair's row arithmetic — the mean of its feature rows, each output
//! row's step, the input rows' update — runs through the dispatched
//! kernels `emblookup_ann::kernels::{mean_rows, out_row_step,
//! sub_scaled_rows}`, which are bit-exact against their scalar arms, so a
//! trained table does not depend on `EMBLOOKUP_KERNEL`.
//!
//! What is left is the dot products — one serial `f32` add chain of `dim`
//! links per output row, each waiting on the last add. When the pair's
//! output rows are distinct no row is read after it is written, so
//! [`SgnsModel::train_pair`] takes every dot before the first update, the
//! chains of up to six rows (the target and the default five negatives)
//! advancing together in one pass; each chain still adds in the order
//! `iter().sum()` does, so the model is bit-identical to the
//! one-row-at-a-time loop (the `#[cfg(test)]` oracle
//! `train_pair_reference`), which a repeated negative still takes.

use emblookup_ann::kernels;
use rand::rngs::StdRng;
use rand::Rng;

/// Unigram^0.75 negative-sampling distribution over output words.
///
/// A draw is `r` uniform in `[0, total)` and the word is the first `i` with
/// `cdf[i] >= r`. That index is found from a guide table rather than by a
/// binary search (the `#[cfg(test)]` oracle `sample_reference`): `r`'s
/// bucket — `r` scaled onto `2 × vocabulary` buckets, a monotone map —
/// names the first index whose own bucket is not below it, every index
/// before that has `cdf < r`, and a short forward scan finds the answer.
#[derive(Debug, Clone)]
pub(crate) struct NegativeSampler {
    cdf: Vec<f64>,
    /// `guide[b]`: the first `i` with `bucket(cdf[i]) >= b`.
    guide: Vec<u32>,
    /// Buckets per unit of `r`.
    scale: f64,
}

impl NegativeSampler {
    /// Builds the sampler from raw token counts.
    ///
    /// # Panics
    /// Panics on an empty count vector.
    pub(crate) fn new(counts: &[u64]) -> Self {
        assert!(!counts.is_empty(), "negative sampler over empty vocabulary");
        let mut cdf = Vec::with_capacity(counts.len());
        let mut acc = 0.0f64;
        for &c in counts {
            acc += (c.max(1) as f64).powf(0.75);
            cdf.push(acc);
        }
        let buckets = 2 * cdf.len();
        let mut sampler = NegativeSampler { scale: buckets as f64 / acc, cdf, guide: Vec::with_capacity(buckets) };
        // `bucket` is monotone and the cdf ascends, so the first index of
        // each bucket only moves forward
        let mut first = 0;
        for b in 0..buckets {
            while first + 1 < sampler.cdf.len() && sampler.bucket(sampler.cdf[first]) < b {
                first += 1;
            }
            sampler.guide.push(first as u32);
        }
        sampler
    }

    /// The guide bucket of `r`: non-decreasing in `r`, at most the last.
    #[inline]
    fn bucket(&self, r: f64) -> usize {
        ((r * self.scale) as usize).min(2 * self.cdf.len() - 1)
    }

    /// Samples one word id.
    pub(crate) fn sample(&self, rng: &mut StdRng) -> u32 {
        let Some(&total) = self.cdf.last() else { return 0 };
        self.pick(rng.gen_range(0.0..total))
    }

    /// The first `i` with `cdf[i] >= r`, or the last word if there is none.
    #[inline]
    fn pick(&self, r: f64) -> u32 {
        let start = self.guide[self.bucket(r)] as usize;
        let scanned = self.cdf[start..].iter().position(|&c| c >= r);
        scanned.map_or(self.cdf.len() - 1, |at| start + at) as u32
    }
}

/// SGNS parameter matrices: input-feature vectors and output-word vectors.
///
/// * word2vec: one input feature per vocabulary word;
/// * fastText: one input feature per hashed character n-gram bucket — a
///   word's vector is the mean of its n-gram features.
#[derive(Debug, Clone)]
pub struct SgnsModel {
    dim: usize,
    in_vecs: Vec<f32>,
    out_vecs: Vec<f32>,
    scratch: PairScratch,
    /// Pairs trained, and how many of them took the dots-first path.
    pairs: (u64, u64),
}

/// Working memory of [`SgnsModel::train_pair`]; nothing in it outlives a
/// pair.
#[derive(Debug, Clone, Default)]
struct PairScratch {
    hidden: Vec<f32>,
    hidden_grad: Vec<f32>,
    /// The pair's output rows: the target, then every negative that is
    /// not the target.
    words: Vec<u32>,
    dots: Vec<f32>,
}

/// Output rows whose dot chains advance together: the target and the
/// default five negatives.
const CHAINS: usize = 6;

impl SgnsModel {
    /// Allocates input/output matrices with the standard word2vec
    /// initialization (uniform inputs, zero outputs).
    pub fn new(n_in: usize, n_out: usize, dim: usize, rng: &mut StdRng) -> Self {
        assert!(dim > 0 && n_in > 0 && n_out > 0, "SGNS dims must be positive");
        let bound = 0.5 / dim as f32;
        let in_vecs = (0..n_in * dim).map(|_| rng.gen_range(-bound..bound)).collect();
        let out_vecs = vec![0.0f32; n_out * dim];
        Self::from_parts(dim, in_vecs, out_vecs)
    }

    fn from_parts(dim: usize, in_vecs: Vec<f32>, out_vecs: Vec<f32>) -> Self {
        SgnsModel { dim, in_vecs, out_vecs, scratch: PairScratch::default(), pairs: (0, 0) }
    }

    /// `(pairs trained, pairs that took every dot before the first
    /// update)` over the model's lifetime.
    pub(crate) fn pairs(&self) -> (u64, u64) {
        self.pairs
    }

    /// Embedding dimension.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// The input vector of feature `f`.
    pub(crate) fn in_row(&self, f: u32) -> &[f32] {
        &self.in_vecs[f as usize * self.dim..(f as usize + 1) * self.dim]
    }

    /// Number of input features (rows of the input matrix).
    pub(crate) fn in_rows(&self) -> usize {
        self.in_vecs.len() / self.dim
    }

    /// Mean of the input-feature vectors for `features`; the zero vector
    /// for an empty feature set.
    pub(crate) fn embed_features(&self, features: &[u32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim];
        kernels::mean_rows(&self.in_vecs, features, &mut out);
        out
    }

    /// One SGNS update: pushes the mean of `features` toward output word
    /// `target` and away from `negatives`. The pair's loss is not
    /// computed: no caller reads it.
    ///
    /// # Panics
    /// Panics on out-of-range feature/word ids.
    pub fn train_pair(&mut self, features: &[u32], target: u32, negatives: &[u32], lr: f32) {
        if features.is_empty() {
            return;
        }
        let dim = self.dim;
        let PairScratch { hidden, hidden_grad, words, dots } = &mut self.scratch;
        hidden.resize(dim, 0.0);
        kernels::mean_rows(&self.in_vecs, features, hidden);
        hidden_grad.clear();
        hidden_grad.resize(dim, 0.0);
        words.clear();
        words.push(target);
        words.extend(negatives.iter().copied().filter(|&neg| neg != target));

        // distinct rows: an update cannot reach a row whose dot is still
        // to be taken, so all of them can be taken first
        let distinct = words.iter().enumerate().all(|(i, word)| !words[..i].contains(word));
        self.pairs.0 += 1;
        if distinct {
            self.pairs.1 += 1;
            dots.clear();
            for rows in words.chunks(CHAINS) {
                dots.extend_from_slice(&interleaved_dots(&self.out_vecs, dim, rows, hidden)[..rows.len()]);
            }
        }

        for (i, &word) in words.iter().enumerate() {
            let label = if i == 0 { 1.0 } else { 0.0 };
            let out_row = &mut self.out_vecs[word as usize * dim..][..dim];
            let dot: f32 = if distinct {
                dots[i]
            } else {
                out_row.iter().zip(hidden.iter()).map(|(&o, &h)| o * h).sum()
            };
            let err = sigmoid(dot) - label; // d loss / d dot
            // `lr * err * h` is `(lr * err) * h`
            kernels::out_row_step(out_row, hidden, hidden_grad, err, lr * err);
        }

        // distribute the hidden gradient over the contributing features
        kernels::sub_scaled_rows(&mut self.in_vecs, features, lr / features.len() as f32, hidden_grad);
    }
}

/// The dot of each of up to [`CHAINS`] output rows with `hidden`, all
/// chains advancing one `j` at a time so their adds overlap. Each is the
/// fold `iter().sum()` runs — ascending `j`, starting from `Sum`'s own
/// neutral element — so every dot is that sum to the bit.
#[inline]
fn interleaved_dots(out_vecs: &[f32], dim: usize, rows: &[u32], hidden: &[f32]) -> [f32; CHAINS] {
    let neutral: f32 = std::iter::empty::<f32>().sum();
    let hidden = &hidden[..dim];
    // a short group scores its last row again; the caller drops it
    let row: [&[f32]; CHAINS] =
        std::array::from_fn(|c| &out_vecs[rows[c.min(rows.len() - 1)] as usize * dim..][..dim]);
    let mut acc = [neutral; CHAINS];
    for j in 0..dim {
        for c in 0..CHAINS {
            acc[c] += row[c][j] * hidden[j];
        }
    }
    acc
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    impl SgnsModel {
        /// `train_pair` as it was before the dots-first path and the row
        /// kernels, kept as the oracle: the feature mean summed element by
        /// element, one output row at a time, its dot taken after every
        /// earlier row's update, two fresh `Vec`s per pair.
        fn train_pair_reference(&mut self, features: &[u32], target: u32, negatives: &[u32], lr: f32) {
            if features.is_empty() {
                return;
            }
            let dim = self.dim;
            let mut hidden = vec![0.0f32; dim];
            for &f in features {
                for (h, &x) in hidden.iter_mut().zip(self.in_row(f)) {
                    *h += x;
                }
            }
            let inv = 1.0 / features.len() as f32;
            for h in &mut hidden {
                *h *= inv;
            }
            let mut hidden_grad = vec![0.0f32; dim];

            let update_output = |this: &mut Self, word: u32, label: f32, hidden: &[f32], hidden_grad: &mut [f32]| {
                let row_start = word as usize * dim;
                let out_row = &mut this.out_vecs[row_start..row_start + dim];
                let dot: f32 = out_row.iter().zip(hidden).map(|(&o, &h)| o * h).sum();
                let err = sigmoid(dot) - label;
                for j in 0..dim {
                    hidden_grad[j] += err * out_row[j];
                    out_row[j] -= lr * err * hidden[j];
                }
            };

            update_output(self, target, 1.0, &hidden, &mut hidden_grad);
            for &neg in negatives {
                if neg == target {
                    continue;
                }
                update_output(self, neg, 0.0, &hidden, &mut hidden_grad);
            }
            let scale = lr / features.len() as f32;
            for &f in features {
                let row = &mut self.in_vecs[f as usize * self.dim..(f as usize + 1) * self.dim];
                for (r, &g) in row.iter_mut().zip(&hidden_grad) {
                    *r -= scale * g;
                }
            }
        }
    }

    #[test]
    fn train_pair_is_bit_identical_to_the_sequential_reference() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for dim in [1usize, 16, 64] {
            let mut rng = StdRng::seed_from_u64(dim as u64);
            let mut fast = SgnsModel::new(40, 12, dim, &mut rng);
            // word2vec zeroes the output rows; start them off zero so the
            // first dots already have something to round
            for x in &mut fast.out_vecs {
                *x = rng.gen_range(-0.5..0.5);
            }
            let mut slow = fast.clone();
            // hand-picked: a repeated negative, a negative equal to the
            // target (alone, and leaving five distinct rows), exactly one
            // group of chains, one feature, no feature, no negative, a
            // repeated feature, one more row than a group of chains
            let fixed: Vec<(Vec<u32>, u32, Vec<u32>)> = vec![
                (vec![3, 4, 5], 2, vec![7, 1, 7, 0, 9]),
                (vec![3, 4], 2, vec![2, 2, 2]),
                (vec![8, 3, 30], 6, vec![6, 1, 2, 3, 4]),
                (vec![39], 11, vec![0, 1, 2, 3, 4]),
                (vec![], 5, vec![1, 2]),
                (vec![1, 2], 5, vec![]),
                (vec![1, 1, 2], 0, vec![1, 2, 3]),
                (vec![5, 6], 3, vec![0, 1, 2, 4, 7, 8]),
            ];
            let seeded = (0..400).map(|_| {
                let features = (0..rng.gen_range(1..12)).map(|_| rng.gen_range(0..40u32)).collect();
                let negatives = (0..rng.gen_range(0..8)).map(|_| rng.gen_range(0..12u32)).collect();
                (features, rng.gen_range(0..12u32), negatives)
            });
            for (features, target, negatives) in fixed.into_iter().chain(seeded).collect::<Vec<_>>() {
                let case = format!("dim {dim} features {features:?} target {target} negatives {negatives:?}");
                fast.train_pair(&features, target, &negatives, 0.05);
                slow.train_pair_reference(&features, target, &negatives, 0.05);
                assert_eq!(bits(&fast.out_vecs), bits(&slow.out_vecs), "output rows: {case}");
                assert_eq!(bits(&fast.in_vecs), bits(&slow.in_vecs), "input rows: {case}");
            }
            // both paths ran, and an empty feature list is not a pair
            let (pairs, dots_first) = fast.pairs();
            assert_eq!(pairs, 407, "dim {dim}");
            assert!(dots_first > 100 && dots_first < pairs - 100, "dim {dim}: {dots_first} of {pairs}");
        }
    }

    impl NegativeSampler {
        /// The sampler as it was before the guide table, kept as the
        /// oracle: the same draw, then a binary search over the cdf.
        fn sample_reference(&self, rng: &mut StdRng) -> u32 {
            let Some(&total) = self.cdf.last() else { return 0 };
            self.pick_reference(rng.gen_range(0.0..total))
        }

        /// The binary search's index of `r`, clamped to the last word.
        fn pick_reference(&self, r: f64) -> u32 {
            match self.cdf.binary_search_by(|x| x.total_cmp(&r)) {
                Ok(i) | Err(i) => i.min(self.cdf.len() - 1) as u32,
            }
        }
    }

    /// The largest `f64` below a positive `x`.
    fn just_below(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    #[test]
    fn the_guide_table_picks_what_the_binary_search_picks() {
        // a corpus's skewed counts, one word, zero counts (which count as
        // one), and one word at 10^6 beside 2 000 singletons
        let mut rng = StdRng::seed_from_u64(17);
        let skewed: Vec<u64> = (0..2176).map(|i| 1 + 5000 / (i + 1) + rng.gen_range(0..4u64)).collect();
        let mut heavy = vec![1u64; 2001];
        heavy[0] = 1_000_000;
        for counts in [skewed, vec![5], vec![0, 0, 0], heavy, vec![1, 1_000_000, 0, 7]] {
            let sampler = NegativeSampler::new(&counts);
            assert_eq!(sampler.guide.len(), 2 * counts.len());
            let what = format!("{} words", counts.len());
            // every boundary: 0, each cdf value and the float just below
            // it, and the float just below the total
            let total = sampler.cdf[sampler.cdf.len() - 1];
            let mut edges = vec![0.0, just_below(total), total];
            for &c in &sampler.cdf {
                edges.extend([c, just_below(c)]);
            }
            for r in edges {
                assert_eq!(sampler.pick(r), sampler.pick_reference(r), "{what}: r = {r:e}");
            }
            // seeded draws, through `sample` itself, the RNG stream shared
            let (mut fast, mut slow) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
            for draw in 0..100_000 {
                assert_eq!(sampler.sample(&mut fast), sampler.sample_reference(&mut slow), "{what}: draw {draw}");
            }
        }
    }

    #[test]
    fn sampler_prefers_frequent_words() {
        let sampler = NegativeSampler::new(&[1000, 1, 1, 1]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut hits = [0usize; 4];
        for _ in 0..1000 {
            hits[sampler.sample(&mut rng) as usize] += 1;
        }
        assert!(hits[0] > 600, "frequent word undersampled: {hits:?}");
    }

    #[test]
    fn sampler_covers_support() {
        let sampler = NegativeSampler::new(&[1, 1, 1]);
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[sampler.sample(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn training_separates_cooccurring_pairs() {
        // two "topics" sharing context words: inputs 0,1 both predict
        // context 4 while inputs 2,3 both predict context 5, so the
        // distributional signal (shared contexts, not direct adjacency)
        // is what pulls 0 and 1 together.
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = SgnsModel::new(6, 6, 8, &mut rng);
        let sampler = NegativeSampler::new(&[1, 1, 1, 1, 1, 1]);
        for _ in 0..2000 {
            let negs: Vec<u32> = (0..3).map(|_| sampler.sample(&mut rng)).collect();
            model.train_pair(&[0], 4, &negs, 0.05);
            let negs: Vec<u32> = (0..3).map(|_| sampler.sample(&mut rng)).collect();
            model.train_pair(&[1], 4, &negs, 0.05);
            let negs: Vec<u32> = (0..3).map(|_| sampler.sample(&mut rng)).collect();
            model.train_pair(&[2], 5, &negs, 0.05);
            let negs: Vec<u32> = (0..3).map(|_| sampler.sample(&mut rng)).collect();
            model.train_pair(&[3], 5, &negs, 0.05);
        }
        let cos = |a: &[f32], b: &[f32]| -> f32 {
            let dot: f32 = a.iter().zip(b).map(|(&x, &y)| x * y).sum();
            let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
            let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
            dot / (na * nb + 1e-9)
        };
        let e0 = model.embed_features(&[0]);
        let e1 = model.embed_features(&[1]);
        let e2 = model.embed_features(&[2]);
        assert!(
            cos(&e0, &e1) > cos(&e0, &e2),
            "co-occurring pair not closer: {} vs {}",
            cos(&e0, &e1),
            cos(&e0, &e2)
        );
    }

    #[test]
    fn empty_features_are_noop() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = SgnsModel::new(2, 2, 4, &mut rng);
        let (before_in, before_out) = (model.in_vecs.clone(), model.out_vecs.clone());
        model.train_pair(&[], 0, &[1], 0.1);
        assert_eq!(model.in_vecs, before_in);
        assert_eq!(model.out_vecs, before_out);
        assert!(model.embed_features(&[]).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn multi_feature_embedding_is_mean() {
        let mut rng = StdRng::seed_from_u64(5);
        let model = SgnsModel::new(2, 2, 4, &mut rng);
        let e0 = model.embed_features(&[0]);
        let e1 = model.embed_features(&[1]);
        let mean = model.embed_features(&[0, 1]);
        for j in 0..4 {
            assert!((mean[j] - (e0[j] + e1[j]) / 2.0).abs() < 1e-6);
        }
    }
}

impl SgnsModel {
    /// Serializes the model to a length-prefixed little-endian buffer.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 4 * (self.in_vecs.len() + self.out_vecs.len()));
        out.extend_from_slice(&(self.dim as u64).to_le_bytes());
        out.extend_from_slice(&(self.in_vecs.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.out_vecs.len() as u64).to_le_bytes());
        for &x in self.in_vecs.iter().chain(self.out_vecs.iter()) {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out
    }

    /// Restores a model serialized with `SgnsModel::to_bytes`; the buffer
    /// holds that and nothing more.
    ///
    /// # Errors
    /// Returns a description of the first structural problem found,
    /// including a header whose float counts the buffer does not hold
    /// exactly (nothing is reserved before that is checked).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        const HEADER: usize = 24;
        let header = bytes.get(..HEADER).ok_or("truncated SGNS buffer")?;
        let [dim, n_in, n_out] =
            std::array::from_fn(|i| u64::from_le_bytes(std::array::from_fn(|b| header[8 * i + b])));
        let floats = n_in.checked_add(n_out).and_then(|n| n.checked_mul(4));
        if floats != Some((bytes.len() - HEADER) as u64) {
            return Err(format!("SGNS buffer of {} bytes does not hold in {n_in} + out {n_out} floats", bytes.len()));
        }
        // the counts now fit in memory, so in `usize`
        let (dim, n_in) = (dim as usize, n_in as usize);
        if dim == 0 || n_in == 0 || n_out == 0 || !n_in.is_multiple_of(dim) || !(n_out as usize).is_multiple_of(dim) {
            return Err(format!("inconsistent SGNS header: dim {dim}, in {n_in}, out {n_out}"));
        }
        let mut values =
            bytes[HEADER..].chunks_exact(4).map(|b| f32::from_le_bytes(std::array::from_fn(|i| b[i])));
        let in_vecs = values.by_ref().take(n_in).collect();
        let out_vecs = values.collect();
        Ok(Self::from_parts(dim, in_vecs, out_vecs))
    }
}

#[cfg(test)]
mod persist_tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn round_trip_preserves_embeddings() {
        let mut rng = StdRng::seed_from_u64(9);
        let model = SgnsModel::new(6, 4, 8, &mut rng);
        let bytes = model.to_bytes();
        let restored = SgnsModel::from_bytes(&bytes).unwrap();
        assert_eq!(model.embed_features(&[0, 3]), restored.embed_features(&[0, 3]));
    }

    #[test]
    fn rejects_truncated() {
        let mut rng = StdRng::seed_from_u64(10);
        let model = SgnsModel::new(2, 2, 4, &mut rng);
        let bytes = model.to_bytes();
        assert!(SgnsModel::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        assert!(SgnsModel::from_bytes(&bytes[..4]).is_err());
    }

    #[test]
    fn rejects_counts_the_buffer_does_not_hold_exactly() {
        let mut rng = StdRng::seed_from_u64(11);
        let bytes = SgnsModel::new(3, 2, 4, &mut rng).to_bytes();
        let header = |dim: u64, n_in: u64, n_out: u64| {
            let mut b = bytes.clone();
            for (i, v) in [dim, n_in, n_out].into_iter().enumerate() {
                b[8 * i..8 * i + 8].copy_from_slice(&v.to_le_bytes());
            }
            b
        };
        // `4 * (n_in + n_out)` wraps to a length this buffer passes
        assert!(SgnsModel::from_bytes(&header(1, 1 << 62, 1 << 62)).is_err());
        // counts that add up, but one side empty or not whole rows
        assert!(SgnsModel::from_bytes(&header(4, 20, 0)).is_err());
        assert!(SgnsModel::from_bytes(&header(4, 0, 20)).is_err());
        assert!(SgnsModel::from_bytes(&header(3, 10, 10)).is_err());
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(SgnsModel::from_bytes(&longer).is_err());
        assert!(SgnsModel::from_bytes(&header(4, 12, 8)).is_ok());
    }
}

