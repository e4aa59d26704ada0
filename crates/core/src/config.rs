//! Configuration of the EmbLookup pipeline.

use emblookup_ann::PqConfig;

/// How entity embeddings are compressed before indexing (§III-D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Compression {
    /// No compression: full-precision flat index (the paper's EL-NC).
    None,
    /// Product quantization with `m` sub-quantizers of `ks` centroids
    /// (the paper's EL; defaults give 8 bytes per entity).
    Pq {
        /// Sub-quantizer count.
        m: usize,
        /// Centroids per sub-quantizer (≤ 256).
        ks: usize,
    },
    /// PCA to `k` dimensions, stored full precision — the weaker
    /// alternative of Figure 5.
    Pca {
        /// Retained components.
        k: usize,
    },
    /// PQ-fused HNSW: graph traversal scored on PQ codes laid out in
    /// adjacency order, with a re-rank of the final frontier against the
    /// vectors kept at one byte a dimension (kANNolo-style). Combines
    /// sub-linear traversal with cache-friendly compressed scoring, and
    /// holds no raw vector: at dimension 64 it is smaller than the flat
    /// index. Reported distances are the 8-bit estimate of squared L2
    /// (bound at `HnswPqIndex::search`), not exact — `None` is the index
    /// that returns exact distances.
    HnswPq {
        /// Max neighbours per node per layer.
        m: usize,
        /// Beam width at query time. Quantized traversal needs a wider
        /// beam than an exact-distance graph for the same recall.
        ef_search: usize,
        /// PQ sub-quantizer count (must divide the embedding dimension).
        pq_m: usize,
        /// Centroids per sub-quantizer (≤ 256).
        pq_ks: usize,
    },
}

impl Compression {
    /// The paper's default PQ setting (64-d → 8 bytes).
    pub fn default_pq() -> Self {
        Compression::Pq { m: 8, ks: 256 }
    }

    /// Short backend label: `flat`, `pq`, `pca` or `hnswpq`.
    pub fn name(&self) -> &'static str {
        match self {
            Compression::None => "flat",
            Compression::Pq { .. } => "pq",
            Compression::Pca { .. } => "pca",
            Compression::HnswPq { .. } => "hnswpq",
        }
    }

    pub(crate) fn pq_config(m: usize, ks: usize, seed: u64) -> PqConfig {
        PqConfig { m, ks, kmeans_iters: 15, seed }
    }
}

/// Triplet-loss margin (Equation 3).
pub(crate) const MARGIN: f32 = 0.5;

/// Which metric-learning loss drives training. The paper uses triplet
/// loss and lists "evaluating other loss functions" as future work;
/// [`LossKind::Contrastive`] implements that extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossKind {
    /// The paper's `max(0, d(a,p)² − d(a,n)² + margin)` (Equation 3).
    Triplet,
    /// Contrastive pull/push on both pairs of the triplet.
    Contrastive,
}

impl LossKind {
    /// Whether this loss is non-zero on a triplet at squared distances
    /// `d_ap` (anchor–positive) and `d_an` (anchor–negative) — the
    /// triplets the online phase keeps.
    pub(crate) fn is_nonzero(self, d_ap: f32, d_an: f32) -> bool {
        match self {
            // `max(0, d_ap − d_an + margin)`: hard or semi-hard
            LossKind::Triplet => d_an < d_ap + MARGIN,
            // `d_ap + max(0, margin² − d_an)`
            LossKind::Contrastive => d_ap > 0.0 || d_an < MARGIN * MARGIN,
        }
    }
}

/// Hyperparameters of the EmbLookup model and training procedure (§III).
///
/// Paper defaults: 64-d embeddings, 5 conv layers of 8 kernels of size 3,
/// triplet margin, batch 128, Adam, 100 epochs (half offline, half online
/// hard mining), 100 triplets per entity. [`EmbLookupConfig::fast`] scales
/// the training budget down for the synthetic-KG reproduction while keeping
/// the architecture identical.
#[derive(Debug, Clone)]
pub struct EmbLookupConfig {
    /// Output embedding dimension (paper default 64).
    pub embedding_dim: usize,
    /// Number of convolution layers (paper: 5).
    pub conv_layers: usize,
    /// Kernels (output channels) per conv layer (paper: 8).
    pub kernels: usize,
    /// Kernel width (paper: 3).
    pub kernel_size: usize,
    /// Maximum mention length `L` for one-hot encoding.
    pub max_len: usize,
    /// Hidden width of the two-layer fusion MLP.
    pub fusion_hidden: usize,
    /// Temporal segments for the CNN max-pooling aggregation. The paper
    /// says "we use max-pooling to aggregate outputs" without fixing the
    /// granularity; 4 segments preserve coarse positional information.
    pub pool_segments: usize,
    /// Loss function (paper: triplet; contrastive is the future-work
    /// extension).
    pub loss: LossKind,
    /// Total training epochs; the first half trains offline on all
    /// triplets, the second half online on hard/semi-hard triplets only.
    pub epochs: usize,
    /// Minibatch size (paper: 128).
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Triplets mined per entity (paper default 100).
    pub triplets_per_entity: usize,
    /// Compression applied to the entity index.
    pub compression: Compression,
    /// Dimension of the frozen fastText semantic features.
    pub fasttext_dim: usize,
    /// Training epochs for the frozen fastText semantic leg (cheap —
    /// SGNS with analytic gradients).
    pub fasttext_epochs: usize,
    /// L2-normalize output embeddings (standard deep-metric-learning
    /// practice; makes the triplet margin scale-free).
    pub l2_normalize: bool,
    /// Additionally index each entity under its alias embeddings — the
    /// optional accuracy/storage trade-off of §III-C ("one could obtain
    /// alternate embeddings for Q183 by evaluating the model on its
    /// aliases"). Off by default, as in the paper.
    pub index_aliases: bool,
    /// RNG seed for mining, initialization and shuffling.
    pub seed: u64,
}

impl Default for EmbLookupConfig {
    fn default() -> Self {
        EmbLookupConfig {
            embedding_dim: 64,
            conv_layers: 5,
            kernels: 8,
            kernel_size: 3,
            max_len: 32,
            fusion_hidden: 128,
            pool_segments: 4,
            loss: LossKind::Triplet,
            epochs: 100,
            batch_size: 128,
            lr: 1e-3,
            triplets_per_entity: 100,
            compression: Compression::default_pq(),
            fasttext_dim: 64,
            fasttext_epochs: 30,
            l2_normalize: true,
            index_aliases: false,
            seed: 0,
        }
    }
}

impl EmbLookupConfig {
    /// Paper architecture with a reduced training budget, sized for the
    /// synthetic benchmark KGs (minutes instead of GPU-hours).
    pub fn fast(seed: u64) -> Self {
        EmbLookupConfig {
            epochs: 16,
            triplets_per_entity: 25,
            lr: 2e-3,
            seed,
            ..Default::default()
        }
    }

    /// Tiny setting for unit tests (seconds).
    pub fn tiny(seed: u64) -> Self {
        EmbLookupConfig {
            embedding_dim: 16,
            conv_layers: 2,
            kernels: 6,
            max_len: 16,
            fusion_hidden: 24,
            pool_segments: 2,
            epochs: 4,
            batch_size: 16,
            lr: 5e-3,
            triplets_per_entity: 6,
            compression: Compression::None,
            fasttext_dim: 16,
            fasttext_epochs: 3,
            seed,
            ..Default::default()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Describes the first invalid field.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.embedding_dim == 0 {
            return Err("embedding_dim must be positive".into());
        }
        if self.conv_layers == 0 {
            return Err("conv_layers must be positive".into());
        }
        for (name, value) in [
            ("kernels", self.kernels),
            ("max_len", self.max_len),
            ("fusion_hidden", self.fusion_hidden),
            ("fasttext_dim", self.fasttext_dim),
            ("pool_segments", self.pool_segments),
        ] {
            if value == 0 {
                return Err(format!("{name} must be positive"));
            }
        }
        if self.kernel_size.is_multiple_of(2) {
            // "same" padding of kernel_size / 2 preserves the length only for odd kernels
            return Err(format!("kernel_size = {} must be odd", self.kernel_size));
        }
        if self.pool_segments > self.max_len {
            // a segment with no sample would pool to -inf and embed to NaN
            return Err(format!(
                "pool_segments = {} must not exceed max_len = {}",
                self.pool_segments, self.max_len
            ));
        }
        if self.epochs == 0 {
            return Err("epochs must be positive".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        if let Compression::Pq { m, ks } = self.compression {
            if m == 0 || !self.embedding_dim.is_multiple_of(m) {
                return Err(format!(
                    "PQ m = {m} must divide embedding_dim = {}",
                    self.embedding_dim
                ));
            }
            if ks == 0 || ks > 256 {
                return Err(format!("PQ ks = {ks} out of range 1..=256"));
            }
        }
        if let Compression::Pca { k } = self.compression {
            if k == 0 || k > self.embedding_dim {
                return Err(format!(
                    "PCA k = {k} out of range 1..={}",
                    self.embedding_dim
                ));
            }
        }
        if let Compression::HnswPq { m, ef_search, pq_m, pq_ks } = self.compression {
            if m == 0 || ef_search == 0 {
                return Err(format!("HNSW-PQ m {m} / ef_search {ef_search} invalid"));
            }
            if pq_m == 0 || !self.embedding_dim.is_multiple_of(pq_m) {
                return Err(format!(
                    "HNSW-PQ pq_m = {pq_m} must divide embedding_dim = {}",
                    self.embedding_dim
                ));
            }
            if pq_ks == 0 || pq_ks > 256 {
                return Err(format!("HNSW-PQ pq_ks = {pq_ks} out of range 1..=256"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = EmbLookupConfig::default();
        assert_eq!(c.embedding_dim, 64);
        assert_eq!(c.conv_layers, 5);
        assert_eq!(c.kernels, 8);
        assert_eq!(c.kernel_size, 3);
        assert_eq!(c.batch_size, 128);
        assert_eq!(c.epochs, 100);
        assert_eq!(c.triplets_per_entity, 100);
        assert_eq!(c.compression, Compression::Pq { m: 8, ks: 256 });
        assert!(c.validate().is_ok());
    }

    fn with_compression(compression: Compression) -> EmbLookupConfig {
        EmbLookupConfig { compression, ..Default::default() }
    }

    #[test]
    fn validate_rejects_bad_pq() {
        assert!(with_compression(Compression::Pq { m: 7, ks: 256 }).validate().is_err());
        assert!(with_compression(Compression::Pq { m: 8, ks: 999 }).validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_pca() {
        assert!(with_compression(Compression::Pca { k: 0 }).validate().is_err());
        assert!(with_compression(Compression::Pca { k: 65 }).validate().is_err());
        assert!(with_compression(Compression::Pca { k: 8 }).validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_hnswpq() {
        let bad = [
            Compression::HnswPq { m: 0, ef_search: 48, pq_m: 8, pq_ks: 16 },
            Compression::HnswPq { m: 12, ef_search: 0, pq_m: 8, pq_ks: 16 },
            Compression::HnswPq { m: 12, ef_search: 48, pq_m: 7, pq_ks: 16 },
            Compression::HnswPq { m: 12, ef_search: 48, pq_m: 8, pq_ks: 999 },
        ];
        for c in bad {
            assert!(with_compression(c).validate().is_err(), "{c:?} accepted");
        }
        let ok = Compression::HnswPq { m: 12, ef_search: 96, pq_m: 8, pq_ks: 16 };
        assert!(with_compression(ok).validate().is_ok());
        assert_eq!(ok.name(), "hnswpq");
    }

    #[test]
    fn validate_rejects_zero_fields() {
        type Break = fn(&mut EmbLookupConfig);
        let cases: [(&str, Break); 12] = [
            ("embedding_dim", |c| c.embedding_dim = 0),
            ("conv_layers", |c| c.conv_layers = 0),
            ("epochs", |c| c.epochs = 0),
            ("batch_size", |c| c.batch_size = 0),
            // each of these used to panic or embed to NaN inside `embed`
            ("kernels", |c| c.kernels = 0),
            ("max_len", |c| c.max_len = 0),
            ("fusion_hidden", |c| c.fusion_hidden = 0),
            ("fasttext_dim", |c| c.fasttext_dim = 0),
            ("pool_segments", |c| c.pool_segments = 0),
            ("pool_segments", |c| c.pool_segments = c.max_len + 1),
            ("kernel_size", |c| c.kernel_size = 0),
            ("kernel_size", |c| c.kernel_size = 4),
        ];
        for (field, break_it) in cases {
            let mut c = EmbLookupConfig::default();
            break_it(&mut c);
            let err = c.validate().expect_err(field);
            assert!(err.contains(field), "{field}: message {err:?} does not name it");
        }
        let mut edge = EmbLookupConfig::default();
        edge.pool_segments = edge.max_len; // one sample per segment is fine
        assert!(edge.validate().is_ok());
    }

    #[test]
    fn presets_are_valid() {
        assert!(EmbLookupConfig::default().validate().is_ok());
        assert!(EmbLookupConfig::tiny(0).validate().is_ok());
        assert!(EmbLookupConfig::fast(0).validate().is_ok());
    }
}
