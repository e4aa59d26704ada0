//! Lloyd's k-means with k-means++ seeding — the clustering engine behind
//! product quantization (§III-D) and the IVF coarse quantizer.
//!
//! Every distance goes through `for_each_sq_l2`: one dispatched
//! [`sq_l2_block`] call per block of rows instead of one `sq_l2` call per
//! row — at a PQ sub-space's 8 floats the call costs more than the
//! arithmetic. The block kernel is the per-row kernel under every variant,
//! so assignments and centroids are bit-equal to the per-row loop's (the
//! `#[cfg(test)]` oracle `fit_reference`).

use crate::kernels::sq_l2_block;
use crate::vectors::VectorSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a k-means run: `k` centroids of the input dimension.
#[derive(Debug, Clone)]
pub struct KMeans {
    centroids: VectorSet,
}

/// Parameters for [`KMeans::fit`].
#[derive(Debug, Clone, Copy)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// RNG seed for the k-means++ initialization.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig { k: 256, max_iters: 20, seed: 0 }
    }
}

impl KMeans {
    /// Runs k-means over `data`.
    ///
    /// When `data.len() <= k`, every point becomes its own centroid and the
    /// remaining centroids are duplicates of the first point, so encoding
    /// degenerates gracefully on tiny inputs.
    ///
    /// # Panics
    /// Panics if `data` is empty or `config.k` is zero.
    pub fn fit(data: &VectorSet, config: KMeansConfig) -> Self {
        assert!(config.k > 0, "k-means with k = 0");
        assert!(!data.is_empty(), "k-means over empty data");
        let dim = data.dim();
        let n = data.len();
        let mut rng = StdRng::seed_from_u64(config.seed);

        let mut centroids = Self::plus_plus_init(data, config.k, &mut rng);
        // no assignment yet: the first pass always reaches its update step
        let mut assignment: Option<Vec<usize>> = None;

        for _ in 0..config.max_iters {
            // assignment step: pure per-point, so it fans out over the
            // pool on large inputs (deterministic — disjoint slots)
            let next_assign: Vec<usize> = if n >= 2048 {
                emblookup_pool::Pool::global()
                    .parallel_map(n, 256, |i| nearest_centroid(&centroids, data.get(i)).0)
            } else {
                data.iter().map(|v| nearest_centroid(&centroids, v).0).collect()
            };
            if assignment.as_ref() == Some(&next_assign) {
                break;
            }
            let assigned = assignment.insert(next_assign);
            // update step
            let mut sums = vec![0.0f32; config.k * dim];
            let mut counts = vec![0usize; config.k];
            for (i, v) in data.iter().enumerate() {
                let c = assigned[i];
                counts[c] += 1;
                for (s, &x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(v) {
                    *s += x;
                }
            }
            let mut next = VectorSet::new(dim);
            for c in 0..config.k {
                if counts[c] == 0 {
                    // dead centroid: reseed on a random point
                    next.push(data.get(rng.gen_range(0..n)));
                } else {
                    let inv = 1.0 / counts[c] as f32;
                    let row: Vec<f32> =
                        sums[c * dim..(c + 1) * dim].iter().map(|s| s * inv).collect();
                    next.push(&row);
                }
            }
            centroids = next;
        }
        KMeans { centroids }
    }

    fn plus_plus_init(data: &VectorSet, k: usize, rng: &mut StdRng) -> VectorSet {
        let n = data.len();
        let mut centroids = VectorSet::new(data.dim());
        centroids.push(data.get(rng.gen_range(0..n)));
        // `sq_l2` is bitwise symmetric: centre-to-point is point-to-centre
        let mut dist2 = vec![0.0f32; n];
        for_each_sq_l2(centroids.get(0), data, |i, d| dist2[i] = d);
        while centroids.len() < k {
            let total: f32 = dist2.iter().sum();
            let next = if total <= f32::EPSILON {
                rng.gen_range(0..n)
            } else {
                // sample proportional to squared distance
                let mut r = rng.gen_range(0.0..total);
                let mut chosen = n - 1;
                for (i, &d) in dist2.iter().enumerate() {
                    if r < d {
                        chosen = i;
                        break;
                    }
                    r -= d;
                }
                chosen
            };
            centroids.push(data.get(next));
            for_each_sq_l2(data.get(next), data, |i, d| {
                if d < dist2[i] {
                    dist2[i] = d;
                }
            });
        }
        centroids
    }

    /// The learned centroids.
    pub fn centroids(&self) -> &VectorSet {
        &self.centroids
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Index and squared distance of the centroid nearest to `v`.
    pub fn assign(&self, v: &[f32]) -> (usize, f32) {
        nearest_centroid(&self.centroids, v)
    }

    /// Mean squared quantization error of `data` under this codebook.
    pub fn distortion(&self, data: &VectorSet) -> f32 {
        if data.is_empty() {
            return 0.0;
        }
        data.iter().map(|v| self.assign(v).1).sum::<f32>() / data.len() as f32
    }
}

/// Calls `f(i, sq_l2(query, rows[i]))` for every row in order, scoring a
/// stack block of rows per dispatched kernel call.
fn for_each_sq_l2(query: &[f32], rows: &VectorSet, mut f: impl FnMut(usize, f32)) {
    const BLOCK: usize = 256;
    let mut dists = [0.0f32; BLOCK];
    for (b, block) in rows.flat().chunks(BLOCK * rows.dim()).enumerate() {
        let dists = &mut dists[..block.len() / rows.dim()];
        sq_l2_block(query, block, dists);
        for (i, &d) in dists.iter().enumerate() {
            f(b * BLOCK + i, d);
        }
    }
}

/// Index and squared distance of the row of `centroids` nearest to `v`,
/// the first of equals.
pub(crate) fn nearest_centroid(centroids: &VectorSet, v: &[f32]) -> (usize, f32) {
    let mut best = (0usize, f32::INFINITY);
    for_each_sq_l2(v, centroids, |c, d| {
        if d < best.1 {
            best = (c, d);
        }
    });
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::sq_l2;

    /// Nearest centroid as it was computed before the block kernel: one
    /// dispatched `sq_l2(point, centroid)` per centroid.
    pub(crate) fn nearest_centroid_reference(centroids: &VectorSet, v: &[f32]) -> (usize, f32) {
        let mut best = (0usize, f32::INFINITY);
        for (c, cv) in centroids.iter().enumerate() {
            let d = sq_l2(v, cv);
            if d < best.1 {
                best = (c, d);
            }
        }
        best
    }

    /// [`KMeans::fit`] over per-centroid distance calls, serial: the
    /// oracle of `fit_is_bit_identical_to_the_per_centroid_reference`.
    fn fit_reference(data: &VectorSet, config: KMeansConfig) -> VectorSet {
        let (dim, n) = (data.dim(), data.len());
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut centroids = VectorSet::new(dim);
        centroids.push(data.get(rng.gen_range(0..n)));
        let mut dist2: Vec<f32> = data.iter().map(|v| sq_l2(v, centroids.get(0))).collect();
        while centroids.len() < config.k {
            let total: f32 = dist2.iter().sum();
            let next = if total <= f32::EPSILON {
                rng.gen_range(0..n)
            } else {
                let mut r = rng.gen_range(0.0..total);
                let mut chosen = n - 1;
                for (i, &d) in dist2.iter().enumerate() {
                    if r < d {
                        chosen = i;
                        break;
                    }
                    r -= d;
                }
                chosen
            };
            centroids.push(data.get(next));
            let newest = centroids.len() - 1;
            for (i, v) in data.iter().enumerate() {
                let d = sq_l2(v, centroids.get(newest));
                if d < dist2[i] {
                    dist2[i] = d;
                }
            }
        }
        let mut assignment: Option<Vec<usize>> = None;
        for _ in 0..config.max_iters {
            let next_assign: Vec<usize> =
                data.iter().map(|v| nearest_centroid_reference(&centroids, v).0).collect();
            if assignment.as_ref() == Some(&next_assign) {
                break;
            }
            let assigned = assignment.insert(next_assign);
            let mut sums = vec![0.0f32; config.k * dim];
            let mut counts = vec![0usize; config.k];
            for (i, v) in data.iter().enumerate() {
                counts[assigned[i]] += 1;
                for (s, &x) in sums[assigned[i] * dim..][..dim].iter_mut().zip(v) {
                    *s += x;
                }
            }
            let mut next = VectorSet::new(dim);
            for c in 0..config.k {
                if counts[c] == 0 {
                    next.push(data.get(rng.gen_range(0..n)));
                } else {
                    let inv = 1.0 / counts[c] as f32;
                    let row: Vec<f32> = sums[c * dim..][..dim].iter().map(|s| s * inv).collect();
                    next.push(&row);
                }
            }
            centroids = next;
        }
        centroids
    }

    fn bits(vs: &VectorSet) -> Vec<u32> {
        vs.flat().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fit_is_bit_identical_to_the_per_centroid_reference() {
        // n below and above the 2 048 pool threshold; 300 clusters span two
        // kernel blocks; without noise there are 5 distinct points, so most
        // centroids are duplicates that win no point and get reseeded
        for &(n, dim, k, noise) in &[
            (90usize, 2usize, 3usize, 0.01f32),
            (700, 8, 16, 0.0),
            (700, 8, 300, 0.01),
            (2500, 8, 256, 0.01),
            (2500, 8, 16, 0.0),
            (2100, 64, 8, 0.01),
        ] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let mut data = VectorSet::new(dim);
            for i in 0..n {
                let v: Vec<f32> =
                    (0..dim).map(|j| ((i % 5) * (j + 1)) as f32 + noise * rng.gen_range(-1.0..1.0)).collect();
                data.push(&v);
            }
            let config = KMeansConfig { k, max_iters: 6, seed: 11 };
            let got = KMeans::fit(&data, config);
            assert_eq!(bits(got.centroids()), bits(&fit_reference(&data, config)), "n {n} dim {dim} k {k}");
            for v in data.iter().take(50) {
                let (want_c, want_d) = nearest_centroid_reference(got.centroids(), v);
                let (c, d) = got.assign(v);
                assert_eq!((c, d.to_bits()), (want_c, want_d.to_bits()));
            }
        }
    }

    #[test]
    fn one_cluster_centroid_is_the_mean() {
        let mut data = VectorSet::new(2);
        for p in [[0.0, 0.0], [2.0, 0.0], [0.0, 4.0], [2.0, 4.0]] {
            data.push(&p);
        }
        for seed in 0..4 {
            let km = KMeans::fit(&data, KMeansConfig { k: 1, max_iters: 5, seed });
            assert_eq!(km.centroids().get(0), &[1.0, 2.0], "seed {seed}");
            assert_eq!(km.distortion(&data), 5.0);
        }
    }

    #[test]
    fn all_points_nearest_to_centroid_zero_still_updates() {
        // a spread below k-means++'s epsilon, so both seeds are drawn
        // uniformly: when they land on one value every point is nearest
        // to centroid 0 (the first of equals) in the first pass, which
        // must still move it to the mean; otherwise each value is a cluster
        let mut data = VectorSet::new(1);
        for x in [0.0, 0.0, 1e-5, 1e-5] {
            data.push(&[x]);
        }
        let mean = 0.5 * 1e-5f32;
        let mut moved = 0;
        for seed in 0..32 {
            let km = KMeans::fit(&data, KMeansConfig { k: 2, max_iters: 1, seed });
            let c0 = km.centroids().get(0)[0];
            assert!([0.0, mean, 1e-5].contains(&c0), "seed {seed}: centroid 0 at {c0}");
            moved += usize::from(c0 == mean);
        }
        assert!(moved > 0, "no seed put both k-means++ seeds on one value");
    }

    fn three_blobs() -> VectorSet {
        let mut vs = VectorSet::new(2);
        let centers = [(0.0, 0.0), (10.0, 10.0), (-10.0, 10.0)];
        let mut rng = StdRng::seed_from_u64(3);
        for &(cx, cy) in &centers {
            for _ in 0..30 {
                vs.push(&[cx + rng.gen_range(-0.5..0.5), cy + rng.gen_range(-0.5..0.5)]);
            }
        }
        vs
    }

    #[test]
    fn recovers_three_blobs() {
        let data = three_blobs();
        let km = KMeans::fit(&data, KMeansConfig { k: 3, max_iters: 50, seed: 1 });
        // every centroid should be within 1.0 of a true blob center
        let truth = [(0.0, 0.0), (10.0, 10.0), (-10.0, 10.0)];
        for c in km.centroids().iter() {
            let close = truth
                .iter()
                .any(|&(x, y)| sq_l2(c, &[x, y]) < 1.0);
            assert!(close, "centroid {c:?} far from all blobs");
        }
        assert!(km.distortion(&data) < 0.5);
    }

    #[test]
    fn assignment_is_nearest() {
        let data = three_blobs();
        let km = KMeans::fit(&data, KMeansConfig { k: 3, max_iters: 50, seed: 2 });
        let (c, d) = km.assign(&[10.0, 10.0]);
        assert!(d < 1.0);
        assert!(c < 3);
    }

    #[test]
    fn fewer_points_than_k_degenerates_gracefully() {
        let mut vs = VectorSet::new(2);
        vs.push(&[1.0, 1.0]);
        vs.push(&[2.0, 2.0]);
        let km = KMeans::fit(&vs, KMeansConfig { k: 8, max_iters: 5, seed: 0 });
        assert_eq!(km.k(), 8);
        // quantizing the training points is exact
        assert_eq!(km.assign(&[1.0, 1.0]).1, 0.0);
        assert_eq!(km.assign(&[2.0, 2.0]).1, 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = three_blobs();
        let a = KMeans::fit(&data, KMeansConfig { k: 3, max_iters: 20, seed: 7 });
        let b = KMeans::fit(&data, KMeansConfig { k: 3, max_iters: 20, seed: 7 });
        assert_eq!(a.centroids(), b.centroids());
    }

    #[test]
    fn identical_points_dont_crash() {
        let mut vs = VectorSet::new(3);
        for _ in 0..20 {
            vs.push(&[1.0, 2.0, 3.0]);
        }
        let km = KMeans::fit(&vs, KMeansConfig { k: 4, max_iters: 10, seed: 0 });
        assert_eq!(km.assign(&[1.0, 2.0, 3.0]).1, 0.0);
    }
}
