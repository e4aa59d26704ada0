//! Principal component analysis — the alternate compression scheme the
//! paper compares against product quantization in Figure 5.
//!
//! Components are extracted by power iteration with deflation on the
//! covariance matrix; embedding dimensions are ≤ 256, so the dense
//! covariance is cheap.

use crate::vectors::VectorSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fitted PCA projection to `k` components.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f32>,
    /// `k` orthonormal component rows of length `dim`.
    components: Vec<Vec<f32>>,
}

impl Pca {
    /// Fits `k` principal components to `data`.
    ///
    /// # Panics
    /// Panics if `data` is empty or `k` exceeds the dimension.
    pub fn fit(data: &VectorSet, k: usize, seed: u64) -> Self {
        assert!(!data.is_empty(), "PCA over empty data");
        let dim = data.dim();
        assert!(k >= 1 && k <= dim, "k = {k} out of range 1..={dim}");
        let n = data.len() as f32;

        let mut mean = vec![0.0f32; dim];
        for v in data.iter() {
            for (m, &x) in mean.iter_mut().zip(v) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n;
        }

        // covariance (dim × dim)
        let mut cov = vec![0.0f32; dim * dim];
        for v in data.iter() {
            for i in 0..dim {
                let di = v[i] - mean[i];
                for j in i..dim {
                    cov[i * dim + j] += di * (v[j] - mean[j]);
                }
            }
        }
        for i in 0..dim {
            for j in i..dim {
                let c = cov[i * dim + j] / n;
                cov[i * dim + j] = c;
                cov[j * dim + i] = c;
            }
        }

        let mut rng = StdRng::seed_from_u64(seed);
        let mut components: Vec<Vec<f32>> = Vec::with_capacity(k);
        for _ in 0..k {
            let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
            normalize(&mut v);
            for _ in 0..60 {
                // w = Cov * v
                let mut w = vec![0.0f32; dim];
                for i in 0..dim {
                    let row = &cov[i * dim..(i + 1) * dim];
                    w[i] = row.iter().zip(&v).map(|(&c, &x)| c * x).sum();
                }
                // orthogonalize against previous components
                for comp in &components {
                    let dot: f32 = w.iter().zip(comp).map(|(&a, &b)| a * b).sum();
                    for (wi, &ci) in w.iter_mut().zip(comp) {
                        *wi -= dot * ci;
                    }
                }
                if normalize(&mut w) < 1e-12 {
                    // degenerate direction (rank-deficient data): keep random
                    break;
                }
                v = w;
            }
            components.push(v);
        }
        Pca { mean, components }
    }

    /// Number of components.
    pub(crate) fn k(&self) -> usize {
        self.components.len()
    }

    /// Input dimension.
    pub(crate) fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Size of the projection itself in bytes: the mean vector plus the
    /// `k × dim` component rows (what an index must retain to project
    /// queries, on top of its projected vectors).
    pub fn nbytes(&self) -> usize {
        let f32s = std::mem::size_of::<f32>();
        self.mean.len() * f32s
            + self.components.iter().map(|c| c.len() * f32s).sum::<usize>()
    }

    /// Projects one vector to `k` dimensions.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn project(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.dim(), "project dim {} != {}", v.len(), self.dim());
        // center once, then one dispatched dot kernel per component
        let centered: Vec<f32> = v.iter().zip(&self.mean).map(|(&xi, &mi)| xi - mi).collect();
        self.components
            .iter()
            .map(|c| crate::kernels::dot(c, &centered))
            .collect()
    }

    /// Projects a whole collection.
    pub fn project_set(&self, data: &VectorSet) -> VectorSet {
        let mut out = VectorSet::new(self.k());
        for v in data.iter() {
            out.push(&self.project(v));
        }
        out
    }

    /// Reconstructs an approximation of the original vector from its
    /// projection.
    #[cfg(test)]
    pub(crate) fn reconstruct(&self, proj: &[f32]) -> Vec<f32> {
        assert_eq!(proj.len(), self.k(), "reconstruct k {} != {}", proj.len(), self.k());
        let mut out = self.mean.clone();
        for (comp, &p) in self.components.iter().zip(proj) {
            for (o, &c) in out.iter_mut().zip(comp) {
                *o += p * c;
            }
        }
        out
    }
}

fn normalize(v: &mut [f32]) -> f32 {
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::sq_l2;

    /// Data on a noisy 1-D line embedded in 3-D.
    fn line_data() -> VectorSet {
        let mut vs = VectorSet::new(3);
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..200 {
            let t = i as f32 / 10.0;
            vs.push(&[
                t + rng.gen_range(-0.01..0.01),
                2.0 * t + rng.gen_range(-0.01..0.01),
                -t + rng.gen_range(-0.01..0.01),
            ]);
        }
        vs
    }

    #[test]
    fn first_component_captures_line() {
        let data = line_data();
        let pca = Pca::fit(&data, 1, 0);
        // reconstruction error with one component should be tiny
        let mut err = 0.0f32;
        for v in data.iter() {
            let rec = pca.reconstruct(&pca.project(v));
            err += sq_l2(v, &rec);
        }
        err /= data.len() as f32;
        assert!(err < 0.01, "line not captured: err {err}");
    }

    #[test]
    fn components_are_orthonormal() {
        let data = line_data();
        let pca = Pca::fit(&data, 3, 0);
        for i in 0..3 {
            for j in 0..3 {
                let dot: f32 = pca.components[i]
                    .iter()
                    .zip(&pca.components[j])
                    .map(|(&a, &b)| a * b)
                    .sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 0.05, "c{i}·c{j} = {dot}");
            }
        }
    }

    #[test]
    fn full_rank_projection_preserves_distances() {
        let data = line_data();
        let pca = Pca::fit(&data, 3, 0);
        let a = data.get(0);
        let b = data.get(50);
        let pa = pca.project(a);
        let pb = pca.project(b);
        let orig = sq_l2(a, b);
        let proj = sq_l2(&pa, &pb);
        assert!((orig - proj).abs() / orig.max(1e-6) < 0.05);
    }

    #[test]
    fn project_set_shapes() {
        let data = line_data();
        let pca = Pca::fit(&data, 2, 0);
        let p = pca.project_set(&data);
        assert_eq!(p.dim(), 2);
        assert_eq!(p.len(), data.len());
    }

    #[test]
    fn constant_data_is_handled() {
        let mut vs = VectorSet::new(2);
        for _ in 0..10 {
            vs.push(&[3.0, 4.0]);
        }
        let pca = Pca::fit(&vs, 1, 0);
        let p = pca.project(&[3.0, 4.0]);
        assert!(p[0].abs() < 1e-4);
        let rec = pca.reconstruct(&p);
        assert!(sq_l2(&rec, &[3.0, 4.0]) < 1e-6);
    }
}
