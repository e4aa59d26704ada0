//! The EmbLookup embedding model (§III-B).
//!
//! Two legs with complementary strengths, fused by a two-layer MLP:
//!
//! * **Syntactic leg** — a stack of 1-D convolutions over the one-hot
//!   character matrix, max-pooled over time. CNNs with max pooling
//!   approximately preserve edit-distance bounds, giving the model its
//!   robustness to typos.
//! * **Semantic leg** — a frozen fastText-style subword embedding trained
//!   on KG labels/aliases, carrying alias- and relation-level similarity.
//!
//! `concat(cnn, fastText) → Linear → ReLU → Linear` produces the final
//! 64-d mention embedding compared under Euclidean distance.

use crate::config::EmbLookupConfig;
use emblookup_embed::{FastText, StringEncoder};
use emblookup_tensor::nn::{Conv1dLayer, Linear};
use emblookup_tensor::ParamStore;
#[cfg(test)]
use emblookup_tensor::{Bindings, Graph, Tensor, Var};
use emblookup_text::{Alphabet, OneHotEncoder};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod train_pass;

pub use train_pass::EncodeScratch;

/// The trainable EmbLookup network plus its frozen semantic encoder.
pub struct EmbLookupModel {
    /// Trainable parameters (conv stack + fusion MLP).
    pub store: ParamStore,
    convs: Vec<Conv1dLayer>,
    fuse1: Linear,
    fuse2: Linear,
    onehot: OneHotEncoder,
    semantic: FastText,
    config: EmbLookupConfig,
}

impl EmbLookupModel {
    /// Builds the network with freshly initialized weights around an
    /// already-trained fastText model.
    ///
    /// # Panics
    /// Panics if `config` fails validation or the fastText dimension
    /// disagrees with `config.fasttext_dim`.
    pub fn new(semantic: FastText, config: EmbLookupConfig) -> Self {
        #[expect(clippy::expect_used, reason = "documented panic contract: config is validated up front, before any work")]
        config.validate().expect("invalid EmbLookup config");
        assert_eq!(
            semantic.dim(),
            config.fasttext_dim,
            "fastText dim {} != config.fasttext_dim {}",
            semantic.dim(),
            config.fasttext_dim
        );
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x5eed));
        let mut store = ParamStore::new();
        let onehot = OneHotEncoder::new(Alphabet::default_lookup(), config.max_len);

        let mut convs = Vec::with_capacity(config.conv_layers);
        let mut in_ch = onehot.rows();
        for i in 0..config.conv_layers {
            convs.push(Conv1dLayer::new(
                &mut store,
                &format!("conv{i}"),
                in_ch,
                config.kernels,
                config.kernel_size,
                &mut rng,
            ));
            in_ch = config.kernels;
        }
        let fused_in = config.kernels * config.pool_segments + config.fasttext_dim;
        let fuse1 = Linear::new(&mut store, "fuse1", fused_in, config.fusion_hidden, &mut rng);
        let fuse2 = Linear::new(
            &mut store,
            "fuse2",
            config.fusion_hidden,
            config.embedding_dim,
            &mut rng,
        );

        EmbLookupModel {
            store,
            convs,
            fuse1,
            fuse2,
            onehot,
            semantic,
            config,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &EmbLookupConfig {
        &self.config
    }

    /// Output embedding dimension.
    pub fn dim(&self) -> usize {
        self.config.embedding_dim
    }

    /// The frozen semantic encoder.
    pub fn semantic(&self) -> &FastText {
        &self.semantic
    }

    /// Graph-free embedding of a mention — the hot path used to embed
    /// every KG entity when building the index and every query at lookup.
    /// Works in a per-thread scratch, so once the thread has embedded a
    /// string as long it allocates only the returned vector.
    pub fn embed(&self, s: &str) -> Vec<f32> {
        self.with_embedding(s, <[f32]>::to_vec)
    }

    /// Runs `f` on `s`'s embedding, [`EmbLookupModel::encode`]d as a step
    /// of one mention in this thread's [`QUERY`] scratch.
    pub(crate) fn with_embedding<R>(&self, s: &str, f: impl FnOnce(&[f32]) -> R) -> R {
        let mut scratch = QUERY.take();
        scratch.clear();
        let found = f(self.encode(s, &mut scratch));
        QUERY.set(scratch);
        found
    }

    /// Embeds a batch of mentions, preserving order — the bulk path
    /// behind index building and batched queries. `threads == 1` stays
    /// on the calling thread; larger values fan out over the persistent
    /// compute pool, one [`EncodeScratch`] per chunk. Each mention's
    /// embedding lands in its own output slot, so results are
    /// bit-identical across thread counts.
    pub fn embed_batch(&self, mentions: &[&str], threads: usize) -> Vec<Vec<f32>> {
        let n = mentions.len();
        if n == 0 {
            return Vec::new();
        }
        let embed_one = |scratch: &mut EncodeScratch, i: usize| {
            scratch.clear();
            self.encode(mentions[i], scratch).to_vec()
        };
        let threads = threads.max(1).min(n);
        if threads == 1 {
            let mut scratch = EncodeScratch::default();
            return (0..n).map(|i| embed_one(&mut scratch, i)).collect();
        }
        let grain = n.div_ceil(threads * 2).max(1);
        emblookup_pool::Pool::global().parallel_map_with(n, grain, EncodeScratch::default, embed_one)
    }
}

std::thread_local! {
    /// The encoder's working memory on this thread.
    /// [`EmbLookupModel::with_embedding`] takes it out for the call and
    /// puts it back after `f`, so an embedding that begins on this thread
    /// while another is under way finds an empty scratch and sizes its
    /// own; a step rewrites what it reads, so reuse cannot affect results.
    static QUERY: std::cell::RefCell<EncodeScratch> = std::cell::RefCell::default();
}

fn relu(xs: &mut [f32]) {
    for v in xs {
        *v = v.max(0.0);
    }
}

#[cfg(test)]
impl EmbLookupModel {
    /// One-hot matrix of a mention as a `[|A|, L]` tensor.
    fn encode_chars(&self, s: &str) -> Tensor {
        let (rows, cols) = self.onehot.shape();
        Tensor::from_vec(&[rows, cols], self.onehot.encode(s))
    }

    /// The forward pass on a training graph, one tape node per op — how
    /// training recorded a mention before [`EmbLookupModel::encode`]: the
    /// slow oracle its embeddings and gradients must match bit for bit.
    pub(crate) fn forward(
        &self,
        g: &mut Graph,
        b: &mut Bindings,
        s: &str,
    ) -> Var {
        // Constant leaves: neither the one-hot character planes nor the frozen
        // fastText vector ever receive gradients, so marking them `constant`
        // lets `backward` skip the first conv layer's input-gradient pass.
        let mut x = g.constant(self.encode_chars(s));
        for conv in &self.convs {
            x = conv.forward(g, b, &self.store, x);
            x = g.relu(x);
        }
        let pooled = g.max_pool_segments(x, self.config.pool_segments); // [kernels * segments]
        let sem = g.constant(Tensor::vector(&self.semantic.embed(s))); // frozen
        let cat = g.concat(&[pooled, sem]);
        let h = self.fuse1.forward(g, b, &self.store, cat);
        let h = g.relu(h);
        let out = self.fuse2.forward(g, b, &self.store, h);
        let out = g.reshape(out, &[self.config.embedding_dim]);
        if self.config.l2_normalize {
            g.l2_normalize(out)
        } else {
            out
        }
    }

    /// The forward pass as a `Tensor` per layer out of the tape's
    /// primitives (`conv1d_forward` behind `Conv1dLayer::infer`,
    /// `Tensor::matmul`) and `FastText::embed`: the slow oracle `embed`
    /// must match bit for bit.
    fn embed_reference(&self, s: &str) -> Vec<f32> {
        let mut x = self.encode_chars(s);
        for conv in &self.convs {
            x = conv.infer(&self.store, &x);
            for v in x.data_mut() {
                *v = v.max(0.0);
            }
        }
        let (c, l) = (x.shape()[0], x.shape()[1]);
        let segments = self.config.pool_segments;
        let chunk = l / segments;
        let mut fused = Vec::with_capacity(c * segments + self.config.fasttext_dim);
        for ch in 0..c {
            let row = &x.data()[ch * l..(ch + 1) * l];
            for s in 0..segments {
                let lo = s * chunk;
                let hi = if s + 1 == segments { l } else { lo + chunk };
                fused.push(row[lo..hi].iter().copied().fold(f32::NEG_INFINITY, f32::max));
            }
        }
        fused.extend(self.semantic.embed(s));
        let param = |name: &str| self.store.iter().find(|p| p.1 == name).expect("registered").2;
        let linear = |x: Vec<f32>, layer: &str| -> Vec<f32> {
            let row = Tensor::from_vec(&[1, x.len()], x);
            let mut y = row.matmul(param(&format!("{layer}.w"))).into_data();
            for (o, &b) in y.iter_mut().zip(param(&format!("{layer}.b")).data()) {
                *o += b;
            }
            y
        };
        let mut h = linear(fused, "fuse1");
        for v in &mut h {
            *v = v.max(0.0);
        }
        let mut out = linear(h, "fuse2");
        if self.config.l2_normalize {
            let norm = out.iter().map(|x| x * x).sum::<f32>().sqrt();
            if norm > 1e-12 {
                for v in &mut out {
                    *v /= norm;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmbLookupConfig;
    use emblookup_embed::{Corpus, FastTextConfig};
    use emblookup_text::NoiseInjector;
    use rand::Rng;

    fn fasttext(dim: usize) -> FastText {
        let mut corpus = Corpus::default();
        for s in ["germany europe", "deutschland europe", "tokyo asia"] {
            corpus.add_sentence(s.split(' ').map(String::from).collect());
        }
        FastText::train(
            &corpus,
            FastTextConfig { dim, buckets: 1 << 10, epochs: 2, ..Default::default() },
        )
    }

    fn tiny_model() -> EmbLookupModel {
        EmbLookupModel::new(fasttext(16), EmbLookupConfig::tiny(1))
    }

    /// The paper's shape (64-d, 5 x 8 x 3, `max_len` 32) with weights as
    /// training leaves them: no bias is zero. With `letter_detectors` the
    /// first layer is rewritten so that channels 5, 2 and 6 fire on 'a',
    /// 'b' and 'c' and nothing else fires at all: every column of the
    /// second layer's input then has at most one nonzero, in channels
    /// that do not ascend with time, and — the plane being 8 wide — the
    /// tensor path gathers there, summing in another order than its dense
    /// loop. The slice pass has to make the same choice.
    fn paper_model(letter_detectors: bool) -> EmbLookupModel {
        let mut m = EmbLookupModel::new(fasttext(64), EmbLookupConfig::default());
        let mut rng = StdRng::seed_from_u64(99);
        let rows = m.onehot.rows();
        let pos = |c: char| m.onehot.alphabet().pos(c);
        let taps = [(5, pos('a'), 0.7), (2, pos('b'), 0.9), (6, pos('c'), 1.3)];
        let ids: Vec<_> = m.store.iter().map(|p| p.0).collect();
        for id in ids {
            let name = m.store.name(id).to_string();
            let data = m.store.get_mut(id).data_mut();
            if name.ends_with(".b") {
                data.iter_mut().for_each(|b| *b = rng.gen_range(-0.3..0.3));
            }
            if letter_detectors && name == "conv0.b" {
                data.fill(0.0);
            }
            if letter_detectors && name == "conv0.w" {
                data.fill(0.0);
                for (ch, row, w) in taps {
                    data[(ch * rows + row) * 3 + 1] = w;
                }
            }
        }
        m
    }

    /// ≥ 2 000 typo-corrupted labels, then the strings picked to break an
    /// encoder: empty, blank, outside the alphabet, over `max_len`, tokens
    /// whose wrapped length sits below, on and above the n-gram range,
    /// mixed case — and a short string right after the longest one, which
    /// finds anything a reused scratch carries over.
    fn differential_corpus() -> Vec<String> {
        let labels = [
            "germany", "federal republic of germany", "east berlin", "tokyo", "new york city",
            "at&t corp.", "route 66", "st. john's (canada)", "rio de janeiro", "o'neill-smith",
            "university of california, berkeley", "x", "international business machines", "1990",
        ];
        let typos = NoiseInjector::typos();
        let mut rng = StdRng::seed_from_u64(2024);
        let mut out: Vec<String> =
            (0..2100).map(|i| typos.corrupt(labels[i % labels.len()], &mut rng)).collect();
        out.extend(
            ["", " ", "日本語", "Ünïcode Straße", "a", "ab", "abc", "abcd", "GerMANY", "EAST berlin"]
                .map(String::from),
        );
        out.push("x".repeat(500));
        out.push("q".into());
        out.push("the quick brown fox jumps over the lazy dog again and again".into());
        out.push("ab".into());
        out.extend(["abcabccbaabc", "cba", "bca cab abc", "ccbbaa", "a b c ab"].map(String::from));
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn embed_is_bit_identical_to_the_tensor_reference() {
        let corpus = differential_corpus();
        let refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
        let models = [tiny_model(), paper_model(false), paper_model(true)];
        let want: Vec<Vec<Vec<u32>>> = models
            .iter()
            .map(|m| refs.iter().map(|s| bits(&m.embed_reference(s))).collect())
            .collect();
        // this thread's scratch for every string and — interleaved — every
        // model
        for (i, s) in refs.iter().enumerate() {
            for (m, want) in models.iter().zip(&want) {
                assert_eq!(bits(&m.embed(s)), want[i], "embed differs for {s:?}");
            }
        }
        // a training step's records piling up in one scratch
        for (m, want) in models.iter().zip(&want) {
            let mut scratch = EncodeScratch::default();
            for (s, want) in refs.iter().zip(want) {
                assert_eq!(&bits(m.encode(s, &mut scratch)), want, "encode differs for {s:?}");
            }
        }
        for (m, want) in models.iter().zip(&want) {
            for threads in [1usize, 4] {
                let got: Vec<Vec<u32>> = m.embed_batch(&refs, threads).iter().map(|v| bits(v)).collect();
                assert_eq!(&got, want, "embed_batch differs at {threads} threads");
            }
        }
    }

    /// FNV-1a over the bits of every embedding `paper_model(false)` gives
    /// `differential_corpus`, in order. The test above compares two paths
    /// inside one process, which resolves one kernel variant; this
    /// constant is what the `EMBLOOKUP_KERNEL=scalar` and `auto` runs of
    /// the gate must both arrive at — the cross-process proof that an
    /// embedding does not depend on the variant.
    const PAPER_MODEL_EMBEDDINGS_FNV1A: u64 = 0xa8e1_1112_303a_1297;

    #[test]
    fn embeddings_hash_to_the_golden_value_under_every_kernel_variant() {
        let model = paper_model(false);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for s in differential_corpus() {
            for byte in model.embed(&s).iter().flat_map(|v| v.to_bits().to_le_bytes()) {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(hash, PAPER_MODEL_EMBEDDINGS_FNV1A, "got {hash:#018x}");
    }

    #[test]
    fn embed_has_configured_dim_and_is_finite() {
        let m = tiny_model();
        let v = m.embed("germany");
        assert_eq!(v.len(), 16);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn graph_forward_matches_infer() {
        let m = tiny_model();
        let mut g = Graph::new();
        let mut b = Bindings::new();
        let var = m.forward(&mut g, &mut b, "east berlin");
        let graph_out = g.value(var).data().to_vec();
        let infer_out = m.embed("east berlin");
        assert_eq!(graph_out.len(), infer_out.len());
        for (a, b) in graph_out.iter().zip(&infer_out) {
            assert!((a - b).abs() < 1e-4, "graph {a} vs infer {b}");
        }
    }

    #[test]
    fn handles_degenerate_inputs() {
        let m = tiny_model();
        for s in ["", " ", "日本語", &"x".repeat(500)] {
            let v = m.embed(s);
            assert_eq!(v.len(), 16);
            assert!(v.iter().all(|x| x.is_finite()), "non-finite for {s:?}");
        }
    }

    #[test]
    fn batch_matches_sequential() {
        let m = tiny_model();
        let mentions = ["germany", "tokyo", "berlin", "paris", "rome"];
        let bits = |vs: &[Vec<f32>]| -> Vec<Vec<u32>> {
            vs.iter().map(|v| v.iter().map(|x| x.to_bits()).collect()).collect()
        };
        let seq = m.embed_batch(&mentions, 1);
        for threads in [1usize, 4] {
            let par = m.embed_batch(&mentions, threads);
            assert_eq!(
                bits(&seq),
                bits(&par),
                "embed_batch not bit-identical at {threads} threads"
            );
        }
    }

    #[test]
    fn deterministic_construction() {
        let a = tiny_model();
        let b = tiny_model();
        assert_eq!(a.embed("germany"), b.embed("germany"));
    }
}

impl EmbLookupModel {
    /// Serializes the trained model: the frozen fastText leg plus every
    /// trainable weight. Reload with [`EmbLookupModel::from_bytes`] under
    /// the same configuration.
    pub fn to_bytes(&self) -> Vec<u8> {
        let ft = self.semantic.to_bytes();
        let weights = self.store.to_bytes();
        let mut out = Vec::with_capacity(16 + ft.len() + weights.len());
        out.extend_from_slice(&(ft.len() as u64).to_le_bytes());
        out.extend_from_slice(&ft);
        out.extend_from_slice(&(weights.len() as u64).to_le_bytes());
        out.extend_from_slice(&weights);
        out
    }

    /// Restores a model serialized with [`EmbLookupModel::to_bytes`].
    /// `config` must match the architecture the weights were trained with.
    ///
    /// # Errors
    /// Returns a description of the first structural mismatch, including a
    /// block length the buffer cannot hold, bytes after the last block and
    /// a fastText leg whose dimension is not `config.fasttext_dim`.
    pub fn from_bytes(bytes: &[u8], config: EmbLookupConfig) -> Result<Self, String> {
        let read_block = |cur: &mut usize| -> Result<&[u8], String> {
            let end = *cur + 8;
            let len = u64::from_le_bytes(
                bytes
                    .get(*cur..end)
                    .ok_or("truncated model buffer")?
                    .try_into()
                    .map_err(|_| "truncated model buffer")?,
            );
            *cur = end;
            let block_end = usize::try_from(len).ok().and_then(|len| end.checked_add(len));
            let block = block_end.and_then(|block_end| bytes.get(end..block_end)).ok_or("truncated model block")?;
            *cur += block.len();
            Ok(block)
        };
        let mut cur = 0usize;
        let semantic = FastText::from_bytes(read_block(&mut cur)?)?;
        if semantic.dim() != config.fasttext_dim {
            return Err(format!("fastText dim {} != config.fasttext_dim {}", semantic.dim(), config.fasttext_dim));
        }
        let weight_block = read_block(&mut cur)?;
        if cur != bytes.len() {
            return Err(format!("{} trailing bytes after the weight block", bytes.len() - cur));
        }
        let mut model = EmbLookupModel::new(semantic, config);
        model.store.load_bytes(weight_block)?;
        Ok(model)
    }
}

#[cfg(test)]
mod persist_tests {
    use super::*;
    use crate::config::EmbLookupConfig;
    use emblookup_embed::{Corpus, FastTextConfig};

    #[test]
    fn model_round_trip_preserves_embeddings() {
        let mut corpus = Corpus::default();
        for s in ["alpha beta", "gamma delta"] {
            corpus.add_sentence(s.split(' ').map(String::from).collect());
        }
        let ft = FastText::train(
            &corpus,
            FastTextConfig { dim: 16, buckets: 1 << 10, epochs: 2, ..Default::default() },
        );
        let config = EmbLookupConfig::tiny(3);
        let model = EmbLookupModel::new(ft, config.clone());
        let bytes = model.to_bytes();
        let restored = EmbLookupModel::from_bytes(&bytes, config).unwrap();
        for s in ["alpha", "beta gamma", "xyz"] {
            assert_eq!(model.embed(s), restored.embed(s), "mismatch for {s}");
        }
    }

    /// The offsets of every length and count field of an
    /// [`EmbLookupModel::to_bytes`] buffer — the two block lengths; in the
    /// fastText block its dimension and bucket count, the idf count, each
    /// token's length, the SGNS block's length and that block's dim / in /
    /// out header; in the weight block the parameter count, each rank and
    /// each shape dimension — and where the fastText and SGNS blocks lie.
    fn length_fields(bytes: &[u8]) -> (Vec<usize>, std::ops::Range<usize>, std::ops::Range<usize>) {
        let at = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap()) as usize;
        let ft = 8..8 + at(0);
        let mut fields = vec![0, ft.start, ft.start + 24];
        // past the seven u64 settings, lr, seed and max_idf
        let mut cur = ft.start + 7 * 8 + 4 + 8 + 4;
        fields.push(cur);
        let tokens = at(cur);
        cur += 8;
        for _ in 0..tokens {
            fields.push(cur);
            cur += 8 + at(cur) + 4;
        }
        fields.push(cur);
        let sgns = cur + 8..cur + 8 + at(cur);
        fields.extend([sgns.start, sgns.start + 8, sgns.start + 16]);
        assert_eq!(sgns.end, ft.end);
        fields.push(ft.end);
        cur = ft.end + 8;
        fields.push(cur);
        let params = at(cur);
        cur += 8;
        for _ in 0..params {
            fields.push(cur);
            let rank = at(cur);
            cur += 8;
            let mut floats = 1;
            for _ in 0..rank {
                fields.push(cur);
                floats *= at(cur);
                cur += 8;
            }
            cur += 4 * floats;
        }
        assert_eq!(cur, bytes.len());
        (fields, ft, sgns)
    }

    #[test]
    fn readers_reject_every_truncation_and_every_crafted_length() {
        // a real buffer, seeded: every prefix of it — and of its fastText
        // and SGNS blocks, which the outer reader's own length check would
        // otherwise stop first —, each reader's buffer with one byte
        // appended, and each length field set to 0, to one
        // past the buffer, to 2^60 and to u64::MAX, is an `Err`, never a
        // panic (here or under --release) or a reservation sized by the
        // field
        let mut corpus = Corpus::default();
        for s in ["alpha beta gamma", "gamma delta", "epsilon alpha zeta"] {
            corpus.add_sentence(s.split(' ').map(String::from).collect());
        }
        let ft = FastText::train(&corpus, FastTextConfig { dim: 16, buckets: 1 << 8, epochs: 2, seed: 7, ..Default::default() });
        let config = EmbLookupConfig::tiny(5);
        let bytes = EmbLookupModel::new(ft, config.clone()).to_bytes();
        assert!(EmbLookupModel::from_bytes(&bytes, config.clone()).is_ok());
        let (fields, ft_block, sgns_block) = length_fields(&bytes);
        assert!(fields.len() > 20, "{} length fields", fields.len());

        for cut in 0..bytes.len() {
            assert!(EmbLookupModel::from_bytes(&bytes[..cut], config.clone()).is_err(), "model cut at {cut}");
        }
        let ft_bytes = &bytes[ft_block.clone()];
        for cut in 0..ft_bytes.len() {
            assert!(FastText::from_bytes(&ft_bytes[..cut]).is_err(), "fastText cut at {cut}");
        }
        // one appended byte: after the whole buffer, after the fastText
        // block, and after the weight block that the store reads
        let appended = |block: &[u8]| [block, &[0]].concat();
        assert!(EmbLookupModel::from_bytes(&appended(&bytes), config.clone()).is_err(), "model + 1 byte");
        assert!(FastText::from_bytes(&appended(ft_bytes)).is_err(), "fastText + 1 byte");
        let mut model = EmbLookupModel::from_bytes(&bytes, config.clone()).unwrap();
        assert!(model.store.load_bytes(&appended(&bytes[ft_block.end + 8..])).is_err(), "weights + 1 byte");
        let sgns_bytes = &bytes[sgns_block];
        for cut in 0..sgns_bytes.len() {
            assert!(emblookup_embed::sgns::SgnsModel::from_bytes(&sgns_bytes[..cut]).is_err(), "SGNS cut at {cut}");
        }

        for &field in &fields {
            let one_past = (bytes.len() - field - 8 + 1) as u64;
            for value in [0, one_past, 1 << 60, u64::MAX] {
                let mut crafted = bytes.clone();
                crafted[field..field + 8].copy_from_slice(&value.to_le_bytes());
                assert!(
                    EmbLookupModel::from_bytes(&crafted, config.clone()).is_err(),
                    "length field at {field} set to {value}"
                );
                if ft_block.contains(&field) {
                    let inner = &crafted[ft_block.clone()];
                    assert!(FastText::from_bytes(inner).is_err(), "fastText field at {field} set to {value}");
                }
            }
        }
    }

    #[test]
    fn model_load_rejects_wrong_architecture() {
        let mut corpus = Corpus::default();
        corpus.add_sentence(vec!["a".into(), "b".into()]);
        let ft = FastText::train(
            &corpus,
            FastTextConfig { dim: 16, buckets: 1 << 8, epochs: 1, ..Default::default() },
        );
        let config = EmbLookupConfig::tiny(4);
        let model = EmbLookupModel::new(ft, config.clone());
        let bytes = model.to_bytes();
        let mut other = config;
        other.kernels = 12; // different conv width -> shape mismatch
        assert!(EmbLookupModel::from_bytes(&bytes, other).is_err());
    }
}
