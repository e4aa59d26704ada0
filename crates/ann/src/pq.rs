//! Product quantization (§III-D of the paper).
//!
//! A `D`-dimensional embedding is split into `m` contiguous sub-vectors;
//! each sub-vector is quantized to the nearest of `ks` centroids learned by
//! k-means, so a vector is stored as `m` small integers (8 bytes for the
//! paper's default `D = 64`, `m = 8`, `ks = 256`). Queries use asymmetric
//! distance computation (ADC): a per-query table of query-to-centroid
//! distances turns each distance evaluation into `m` table lookups.

use crate::index::AnnIndex;
use crate::kernels;
use crate::kmeans::{KMeans, KMeansConfig};
use crate::topk::{Neighbor, TopK};
use crate::vectors::VectorSet;
use emblookup_obs::names;

/// Configuration for [`ProductQuantizer::train`].
#[derive(Debug, Clone, Copy)]
pub struct PqConfig {
    /// Number of sub-quantizers (`m`); must divide the vector dimension.
    pub m: usize,
    /// Centroids per sub-quantizer (`ks`, ≤ 256 so codes fit in a byte).
    pub ks: usize,
    /// k-means iterations per sub-quantizer.
    pub kmeans_iters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PqConfig {
    /// The paper's default: 8 sub-quantizers × 256 centroids = 8 B/vector.
    fn default() -> Self {
        PqConfig { m: 8, ks: 256, kmeans_iters: 15, seed: 0 }
    }
}

/// Trained product quantizer: `m` codebooks of `ks` sub-centroids each.
#[derive(Debug, Clone)]
pub struct ProductQuantizer {
    m: usize,
    dsub: usize,
    ks: usize,
    /// The `m` codebooks of `ks` centroids of dimension `dsub`, side by
    /// side, each stored dimension-major (`[dsub][ks]`): coordinate `k` of
    /// codebook `j`'s centroid `c` is at `(j * dsub + k) * ks + c`. The ADC
    /// table and the encoder score a sub-vector against a whole codebook
    /// with [`kernels::sq_l2_columns`], one register of centroids per
    /// dimension.
    codebooks: Vec<f32>,
}

impl ProductQuantizer {
    /// Trains the quantizer on `data`.
    ///
    /// # Panics
    /// Panics if `data` is empty, `config.m` does not divide the dimension,
    /// or `config.ks` exceeds 256.
    pub fn train(data: &VectorSet, config: PqConfig) -> Self {
        assert!(!data.is_empty(), "PQ training data is empty");
        assert!(config.ks >= 1 && config.ks <= 256, "ks must be 1..=256, got {}", config.ks);
        let dim = data.dim();
        assert_eq!(
            dim % config.m,
            0,
            "m = {} does not divide dimension {}",
            config.m,
            dim
        );
        let dsub = dim / config.m;
        let _span = emblookup_obs::Span::enter(names::INDEX_BUILD_QUANTIZER).field("rows", data.len() as u64);
        let mut codebooks = Vec::with_capacity(dim * config.ks);
        for j in 0..config.m {
            let mut sub = VectorSet::new(dsub);
            for v in data.iter() {
                sub.push(&v[j * dsub..(j + 1) * dsub]);
            }
            let km = KMeans::fit(
                &sub,
                KMeansConfig {
                    k: config.ks,
                    max_iters: config.kmeans_iters,
                    seed: config.seed.wrapping_add(j as u64),
                },
            );
            // k-means returns exactly `ks` centroids, duplicates included
            let centroids = km.centroids();
            for k in 0..dsub {
                codebooks.extend((0..config.ks).map(|c| centroids.get(c)[k]));
            }
        }
        ProductQuantizer { m: config.m, dsub, ks: config.ks, codebooks }
    }

    /// Codebook `j`, dimension-major.
    #[inline]
    fn codebook(&self, j: usize) -> &[f32] {
        &self.codebooks[j * self.dsub * self.ks..(j + 1) * self.dsub * self.ks]
    }

    /// Number of sub-quantizers.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Centroids per sub-quantizer.
    pub fn ks(&self) -> usize {
        self.ks
    }

    /// Dimension handled by the quantizer.
    pub fn dim(&self) -> usize {
        self.m * self.dsub
    }

    /// Size of the codebooks in bytes.
    pub fn codebook_nbytes(&self) -> usize {
        std::mem::size_of_val(self.codebooks.as_slice())
    }

    /// Encodes one vector into `m` bytes.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn encode(&self, v: &[f32]) -> Vec<u8> {
        let mut code = vec![0u8; self.m];
        self.encode_into(v, &mut code);
        code
    }

    /// [`ProductQuantizer::encode`] into the caller's `m` bytes: per
    /// sub-vector one kernel call against the whole codebook, then the
    /// nearest centroid, the first of equals (as k-means assigns).
    fn encode_into(&self, v: &[f32], code: &mut [u8]) {
        assert_eq!(v.len(), self.dim(), "encode dim {} != {}", v.len(), self.dim());
        let mut dists = [0.0f32; 256];
        let dists = &mut dists[..self.ks];
        for (j, byte) in code.iter_mut().enumerate() {
            kernels::sq_l2_columns(&v[j * self.dsub..(j + 1) * self.dsub], self.codebook(j), dists);
            let mut best = (0usize, f32::INFINITY);
            for (c, &d) in dists.iter().enumerate() {
                if d < best.1 {
                    best = (c, d);
                }
            }
            *byte = best.0 as u8;
        }
    }

    /// The codes of `row(0), .., row(n - 1)` side by side, encoded over
    /// the pool in blocks of rows (each row's code is a pure function of
    /// the row, so the bytes are the same at any width).
    pub(crate) fn encode_rows<'v>(&self, n: usize, row: impl Fn(usize) -> &'v [f32] + Sync) -> Vec<u8> {
        const BLOCK: usize = 512;
        let _span = emblookup_obs::Span::enter(names::INDEX_BUILD_ENCODE).field("rows", n as u64);
        let blocks = emblookup_pool::Pool::global().parallel_map(n.div_ceil(BLOCK), 1, |b| {
            let rows = b * BLOCK..((b + 1) * BLOCK).min(n);
            let mut codes = vec![0u8; rows.len() * self.m];
            for (i, code) in rows.zip(codes.chunks_exact_mut(self.m)) {
                self.encode_into(row(i), code);
            }
            codes
        });
        blocks.concat()
    }

    /// Reconstructs the approximate vector for a code.
    ///
    /// # Panics
    /// Panics if the code length differs from `m` or a byte names no
    /// centroid.
    pub fn decode(&self, code: &[u8]) -> Vec<f32> {
        assert_eq!(code.len(), self.m, "code length {} != m {}", code.len(), self.m);
        let mut out = Vec::with_capacity(self.dim());
        for (j, &c) in code.iter().enumerate() {
            assert!((c as usize) < self.ks, "code byte {c} >= ks {}", self.ks);
            out.extend(self.codebook(j).iter().skip(c as usize).step_by(self.ks));
        }
        out
    }

    /// ADC lookup table for `query`: entry `[j * ks + c]` holds the squared
    /// distance between the query's `j`-th sub-vector and centroid `c`.
    pub fn distance_table(&self, query: &[f32]) -> Vec<f32> {
        let mut table = Vec::new();
        self.distance_table_into(query, &mut table);
        table
    }

    /// Fills `table` with the ADC lookup table for `query`, reusing its
    /// allocation — the search paths call this once per query on one
    /// buffer per thread instead of allocating `m * ks` floats every time.
    pub fn distance_table_into(&self, query: &[f32], table: &mut Vec<f32>) {
        assert_eq!(query.len(), self.dim(), "query dim {} != {}", query.len(), self.dim());
        table.clear();
        table.resize(self.m * self.ks, 0.0);
        // one dispatched call per codebook, not per centroid — at small
        // dsub the per-call dispatch would otherwise cost more than the
        // arithmetic
        for (j, row) in table.chunks_exact_mut(self.ks).enumerate() {
            kernels::sq_l2_columns(&query[j * self.dsub..(j + 1) * self.dsub], self.codebook(j), row);
        }
    }

    /// Approximate squared distance via the ADC table.
    ///
    /// Delegates to the dispatched kernel layer, which sums in strict
    /// ascending sub-quantizer order — the order contract that makes
    /// [`kernels::adc_block`] and [`kernels::adc_gather`] bit-exact
    /// against this function, so batched and per-code scans always agree
    /// exactly.
    #[inline]
    pub fn adc(&self, table: &[f32], code: &[u8]) -> f32 {
        kernels::adc(table, self.ks, code)
    }
}

/// Compressed index: one `m`-byte code per vector plus the codebooks — the
/// paper's EL configuration (8 B/entity instead of 256 B).
///
/// ```
/// use emblookup_ann::{PqConfig, PqIndex, VectorSet};
/// let mut data = VectorSet::new(8);
/// for i in 0..100 {
///     data.push(&[i as f32, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
/// }
/// let index = PqIndex::build(&data, PqConfig { m: 2, ks: 16, kmeans_iters: 5, seed: 0 });
/// let hits = index.search(data.get(42), 3);
/// assert_eq!(hits.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct PqIndex {
    quantizer: ProductQuantizer,
    codes: Vec<u8>,
    n: usize,
}

std::thread_local! {
    /// The ADC table of the query [`PqIndex::search`] is answering on this
    /// thread — the caller's, or a pool worker's under `search_batch` —
    /// rebuilt in place per query, so reuse cannot affect results.
    static TABLE: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

impl PqIndex {
    /// Trains a quantizer on `data` and encodes every vector.
    pub fn build(data: &VectorSet, config: PqConfig) -> Self {
        let quantizer = ProductQuantizer::train(data, config);
        Self::from_quantizer(quantizer, data)
    }

    /// Encodes `data` under an already-trained quantizer.
    pub fn from_quantizer(quantizer: ProductQuantizer, data: &VectorSet) -> Self {
        let codes = quantizer.encode_rows(data.len(), |i| data.get(i));
        PqIndex { n: data.len(), quantizer, codes }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The trained quantizer.
    pub fn quantizer(&self) -> &ProductQuantizer {
        &self.quantizer
    }

    /// Size of the stored codes in bytes (8 B/vector at paper defaults).
    pub fn code_nbytes(&self) -> usize {
        self.codes.len()
    }

    /// Total index size: codes plus codebooks.
    pub fn nbytes(&self) -> usize {
        self.code_nbytes() + self.quantizer.codebook_nbytes()
    }

    /// Approximate `k` nearest neighbours of `query` via ADC, ascending.
    /// Codes are scored in fixed-size blocks through
    /// [`kernels::adc_block`], which is bit-exact against the per-code
    /// kernel, so results equal a per-code scan exactly.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        if self.n == 0 || k == 0 {
            return Vec::new();
        }
        crate::metrics::pq_searches().inc();
        crate::metrics::pq_visited().add(self.n as u64);
        let m = self.quantizer.m();
        let ks = self.quantizer.ks();
        // a scan returns at most `n` hits, whatever `k` asks for
        let mut tk = TopK::new(k.min(self.n));
        TABLE.with(|table| {
            let mut table = table.borrow_mut();
            self.quantizer.distance_table_into(query, &mut table);
            // stack block: one dispatched kernel call per 256 codes
            let mut dists = [0.0f32; 256];
            let mut i = 0;
            for chunk in self.codes.chunks(256 * m) {
                let cn = chunk.len() / m;
                kernels::adc_block(&table, ks, m, chunk, &mut dists[..cn]);
                tk.offer_block(i, &dists[..cn]);
                i += cn;
            }
        });
        tk.into_sorted()
    }
}

impl AnnIndex for PqIndex {
    fn name(&self) -> &'static str {
        "pq"
    }

    fn len(&self) -> usize {
        self.n
    }

    fn nbytes(&self) -> usize {
        // the inherent method (inherent wins path resolution)
        PqIndex::nbytes(self)
    }

    /// An ADC scan always visits every stored code.
    fn search_counted(&self, query: &[f32], k: usize) -> (Vec<Neighbor>, u64) {
        (self.search(query, k), self.n as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::kernels::sq_l2;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_set(n: usize, dim: usize, seed: u64) -> VectorSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vs = VectorSet::new(dim);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            vs.push(&v);
        }
        vs
    }

    fn small_config() -> PqConfig {
        PqConfig { m: 4, ks: 16, kmeans_iters: 10, seed: 0 }
    }

    /// Codebook `j` row-major, as k-means returned it.
    fn centroid_rows(pq: &ProductQuantizer, j: usize) -> VectorSet {
        let columns = pq.codebook(j);
        let rows = (0..pq.ks).flat_map(|c| (0..pq.dsub).map(move |k| columns[k * pq.ks + c])).collect();
        VectorSet::from_flat(pq.dsub, rows)
    }

    /// `encode` as it was before `encode_into`: one dispatched `sq_l2`
    /// per centroid.
    fn encode_reference(pq: &ProductQuantizer, v: &[f32]) -> Vec<u8> {
        let mut code = Vec::with_capacity(pq.m);
        for j in 0..pq.m {
            let sub = &v[j * pq.dsub..(j + 1) * pq.dsub];
            let mut best = (0usize, f32::INFINITY);
            for (c, cent) in centroid_rows(pq, j).iter().enumerate() {
                let d = sq_l2(sub, cent);
                if d < best.1 {
                    best = (c, d);
                }
            }
            code.push(best.0 as u8);
        }
        code
    }

    #[test]
    fn encode_is_bit_identical_to_the_per_centroid_reference() {
        // the paper's 8 x 256 over 8-float sub-vectors, a one-float
        // sub-space, and more rows than one encode block
        for &(n, dim, m, ks) in &[(700usize, 64usize, 8usize, 256usize), (1300, 4, 4, 16), (300, 16, 2, 1)] {
            let data = random_set(n, dim, 21);
            let index = PqIndex::build(&data, PqConfig { m, ks, kmeans_iters: 4, seed: 5 });
            let pq = index.quantizer();
            let mut want = Vec::with_capacity(n * m);
            for v in data.iter() {
                let code = encode_reference(pq, v);
                assert_eq!(pq.encode(v), code);
                want.extend_from_slice(&code);
            }
            assert_eq!(index.codes, want, "n {n} dim {dim} m {m} ks {ks}");
        }
    }

    #[test]
    fn the_table_equals_sq_l2_block_over_the_row_major_codebooks() {
        // the codebooks k-means trains, stored once dimension-major: every
        // table entry is the row-major block kernel's to the bit, every
        // decoded centroid its row, at the dsubs of every serving tier
        for &(dim, m, ks) in &[(64usize, 16usize, 256usize), (64, 8, 256), (64, 4, 16), (32, 4, 100), (16, 2, 7), (8, 1, 1)] {
            let data = random_set(400, dim, 3);
            let pq = ProductQuantizer::train(&data, PqConfig { m, ks, kmeans_iters: 3, seed: 1 });
            assert_eq!(pq.codebook_nbytes(), m * ks * (dim / m) * 4);
            for q in random_set(5, dim, 4).iter() {
                let table = pq.distance_table(q);
                for j in 0..m {
                    let rows = centroid_rows(&pq, j);
                    let mut want = vec![f32::NAN; ks];
                    kernels::sq_l2_block(&q[j * pq.dsub..(j + 1) * pq.dsub], rows.flat(), &mut want);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&table[j * ks..(j + 1) * ks]), bits(&want), "dim {dim} m {m} ks {ks} j {j}");
                }
            }
            for c in 0..ks {
                let decoded = pq.decode(&vec![c as u8; m]);
                let want: Vec<f32> = (0..m).flat_map(|j| centroid_rows(&pq, j).get(c).to_vec()).collect();
                assert_eq!(decoded, want, "dim {dim} m {m} ks {ks} centroid {c}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "code byte 7 >= ks 7")]
    fn decode_rejects_a_byte_past_the_codebook() {
        let pq = ProductQuantizer::train(&random_set(50, 8, 5), PqConfig { m: 2, ks: 7, kmeans_iters: 2, seed: 0 });
        let _ = pq.decode(&[0, 7]);
    }

    #[test]
    fn encode_decode_reduces_error_vs_random() {
        let data = random_set(300, 16, 1);
        let pq = ProductQuantizer::train(&data, small_config());
        let mut total = 0.0f32;
        for v in data.iter() {
            let rec = pq.decode(&pq.encode(v));
            total += sq_l2(v, &rec);
        }
        let avg = total / data.len() as f32;
        // a random 16-d vector pair in [-1,1] has expected sq dist ~ 16 * 2/3
        assert!(avg < 3.0, "quantization error too high: {avg}");
    }

    #[test]
    fn adc_equals_decoded_distance() {
        let data = random_set(100, 8, 2);
        let pq = ProductQuantizer::train(&data, PqConfig { m: 2, ks: 8, kmeans_iters: 10, seed: 3 });
        let q: Vec<f32> = (0..8).map(|i| i as f32 * 0.1).collect();
        let table = pq.distance_table(&q);
        for v in data.iter().take(10) {
            let code = pq.encode(v);
            let adc = pq.adc(&table, &code);
            let exact = sq_l2(&q, &pq.decode(&code));
            assert!((adc - exact).abs() < 1e-4, "adc {adc} vs exact {exact}");
        }
        // the reusable-buffer table fill must match the allocating one
        let mut reused = vec![9.0f32; 3]; // wrong size and stale content
        pq.distance_table_into(&q, &mut reused);
        assert_eq!(table, reused);
    }

    #[test]
    fn batched_adc_matches_single_query_search() {
        // the batched path (shared table buffer, pool fan-out) must be
        // exactly equal to per-query search, ids and distances both
        let data = random_set(400, 16, 9);
        let idx = PqIndex::build(&data, small_config());
        let queries = random_set(33, 16, 10);
        for threads in [1, 4] {
            let batched = idx.search_batch(&queries, 7, threads);
            assert_eq!(batched.len(), queries.len());
            for (q, hits) in queries.iter().zip(&batched) {
                let single = idx.search(q, 7);
                assert_eq!(hits, &single, "threads={threads}");
            }
        }
    }

    #[test]
    fn code_size_matches_paper_math() {
        // 64-d vectors, m=8, ks=256 -> 8 bytes per vector (vs 256 raw)
        let data = random_set(300, 64, 4);
        let idx = PqIndex::build(&data, PqConfig { m: 8, ks: 256, kmeans_iters: 3, seed: 0 });
        assert_eq!(idx.code_nbytes(), 300 * 8);
        assert_eq!(data.nbytes(), 300 * 256);
    }

    #[test]
    fn recall_at_large_k_is_high() {
        // Figure 4's premise: PQ recall improves with k
        let data = random_set(500, 16, 5);
        let flat = FlatIndex::new(data.clone());
        let idx = PqIndex::build(&data, small_config());
        let queries = random_set(20, 16, 6);
        let mut recall_small = 0.0;
        let mut recall_large = 0.0;
        for q in queries.iter() {
            let truth_small: Vec<usize> = flat.search(q, 2).iter().map(|n| n.index).collect();
            let got_small: Vec<usize> = idx.search(q, 2).iter().map(|n| n.index).collect();
            recall_small += truth_small.iter().filter(|i| got_small.contains(i)).count() as f64 / 2.0;

            let truth_large: Vec<usize> = flat.search(q, 50).iter().map(|n| n.index).collect();
            let got_large: Vec<usize> = idx.search(q, 50).iter().map(|n| n.index).collect();
            recall_large += truth_large.iter().filter(|i| got_large.contains(i)).count() as f64 / 50.0;
        }
        recall_small /= 20.0;
        recall_large /= 20.0;
        assert!(recall_large > 0.5, "recall@50 too low: {recall_large}");
        assert!(recall_large >= recall_small - 0.05, "recall did not improve with k");
    }

    #[test]
    fn search_is_sorted_and_sized() {
        let data = random_set(100, 8, 7);
        let idx = PqIndex::build(&data, PqConfig { m: 2, ks: 8, kmeans_iters: 5, seed: 0 });
        let hits = idx.search(data.get(0), 10);
        assert_eq!(hits.len(), 10);
        for w in hits.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn bad_m_panics() {
        let data = random_set(10, 10, 8);
        let _ = ProductQuantizer::train(&data, PqConfig { m: 3, ks: 4, kmeans_iters: 2, seed: 0 });
    }

    #[test]
    fn duplicate_vectors_encode_identically() {
        let mut vs = VectorSet::new(4);
        for _ in 0..50 {
            vs.push(&[1.0, 2.0, 3.0, 4.0]);
        }
        let pq = ProductQuantizer::train(&vs, PqConfig { m: 2, ks: 4, kmeans_iters: 5, seed: 0 });
        let c1 = pq.encode(vs.get(0));
        let c2 = pq.encode(vs.get(49));
        assert_eq!(c1, c2);
        let rec = pq.decode(&c1);
        assert!(sq_l2(&rec, vs.get(0)) < 1e-6);
    }
}
