//! Dense row-major `f32` tensor used throughout the deep-learning substrate.
//!
//! The tensor is deliberately simple: a shape vector plus a contiguous
//! `Vec<f32>`. EmbLookup's models only need rank-1/2/3 tensors, and keeping
//! the representation flat makes the hot loops (matmul, conv) easy for the
//! compiler to vectorize.

use rand::Rng;
use std::fmt;

/// A dense, row-major tensor of `f32` values.
///
/// Shapes are immutable after construction except through `Tensor::reshape`,
/// which only re-labels the same buffer. All arithmetic helpers panic on
/// shape mismatch with a message naming the offending shapes; the autograd
/// layer in [`crate::graph`] validates shapes before calling them.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of the given shape filled with `value`.
    pub(crate) fn full(shape: &[usize], value: f32) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; n],
        }
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a one-filled tensor.
    pub(crate) fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a rank-0 (scalar) tensor.
    pub(crate) fn scalar(value: f32) -> Self {
        Tensor {
            shape: vec![],
            data: vec![value],
        }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            n,
            "tensor data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn vector(data: &[f32]) -> Self {
        Tensor {
            shape: vec![data.len()],
            data: data.to_vec(),
        }
    }

    /// Samples every element uniformly from `[lo, hi)`.
    pub fn uniform<R: Rng + ?Sized>(shape: &[usize], lo: f32, hi: f32, rng: &mut R) -> Self {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Samples every element from a normal distribution via Box–Muller.
    ///
    /// We avoid `rand_distr` (not in the offline dependency set); Box–Muller
    /// over two uniforms is plenty for weight initialization.
    pub fn randn<R: Rng + ?Sized>(shape: &[usize], mean: f32, std: f32, rng: &mut R) -> Self {
        let n: usize = shape.iter().product();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(mean + std * r * theta.cos());
            if data.len() < n {
                data.push(mean + std * r * theta.sin());
            }
        }
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Tensor rank (number of dimensions).
    #[inline]
    pub(crate) fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Borrows the flat data buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the flat data buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the flat buffer.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Returns the scalar value of a rank-0 or single-element tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() on tensor with {} elements",
            self.data.len()
        );
        self.data[0]
    }

    /// Number of rows of a rank-2 tensor (rank-1 counts as a single row).
    pub(crate) fn rows(&self) -> usize {
        match self.shape.len() {
            0 | 1 => 1,
            _ => self.shape[0],
        }
    }

    /// Number of columns of a rank-1 or rank-2 tensor.
    pub(crate) fn cols(&self) -> usize {
        match self.shape.len() {
            0 => 1,
            1 => self.shape[0],
            _ => self.shape[1],
        }
    }

    /// Reads element `(i, j)` of a rank-2 tensor.
    #[inline]
    #[cfg(test)]
    pub(crate) fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.rank(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Writes element `(i, j)` of a rank-2 tensor.
    #[inline]
    #[cfg(test)]
    pub(crate) fn set2(&mut self, i: usize, j: usize, v: f32) {
        debug_assert_eq!(self.rank(), 2);
        self.data[i * self.shape[1] + j] = v;
    }

    /// Re-labels the buffer with a new shape of identical element count.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub(crate) fn reshape(mut self, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            n,
            self.data.len(),
            "cannot reshape {:?} ({} elems) to {:?} ({} elems)",
            self.shape,
            self.data.len(),
            shape,
            n
        );
        self.shape = shape.to_vec();
        self
    }

    /// Elementwise addition producing a new tensor.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub(crate) fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise subtraction producing a new tensor.
    pub(crate) fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product producing a new tensor.
    pub(crate) fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// Elementwise combination with `f`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub(crate) fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Applies `f` to every element, producing a new tensor.
    pub(crate) fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Multiplies every element by `s` in place.
    pub(crate) fn scale_mut(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// `self += alpha * other`, in place.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub(crate) fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "axpy shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Sum of all elements.
    pub(crate) fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub(crate) fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Matrix product of two rank-2 tensors: `[m,k] x [k,n] -> [m,n]`.
    ///
    /// Two kernels, picked by shape:
    ///
    /// * **Row-vector / skinny lhs** (`m == 1` or `k < 8`): the original
    ///   ikj axpy order with an exact-zero sparsity skip. The inference
    ///   hot path (`[1,k] x [k,n]` in `Linear::infer`) always lands here,
    ///   so its summation order — and therefore its output bits — are
    ///   unchanged.
    /// * **Blocked** (everything else, i.e. training batches): packs
    ///   `other` transposed once so every inner product walks contiguous
    ///   memory, then computes 4-wide-unrolled dots in column blocks that
    ///   keep the packed panel resident in cache. The unroll breaks the
    ///   serial float dependency chain the compiler cannot reassociate.
    ///
    /// # Panics
    /// Panics unless both tensors are rank-2 with compatible inner dims.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul lhs must be rank-2, got {:?}", self.shape);
        assert_eq!(other.rank(), 2, "matmul rhs must be rank-2, got {:?}", other.shape);
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dim mismatch: {:?} x {:?}", self.shape, other.shape);
        let mut out = vec![0.0f32; m * n];
        if m == 1 || k < 8 {
            for i in 0..m {
                let arow = &self.data[i * k..(i + 1) * k];
                let orow = &mut out[i * n..(i + 1) * n];
                for (p, &a) in arow.iter().enumerate() {
                    // exact-zero sparsity skip; any nonzero (or NaN) takes the dense path
                    if a == 0.0 {
                        continue; // one-hot inputs make lhs extremely sparse
                    }
                    let brow = &other.data[p * n..(p + 1) * n];
                    for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                        *o += a * b;
                    }
                }
            }
        } else {
            let bt = other.transpose();
            const JB: usize = 32; // 32 packed rows of k floats ≈ one L1 panel
            for j0 in (0..n).step_by(JB) {
                let j1 = (j0 + JB).min(n);
                for i in 0..m {
                    let arow = &self.data[i * k..(i + 1) * k];
                    let orow = &mut out[i * n..(i + 1) * n];
                    for (j, o) in (j0..j1).zip(orow[j0..j1].iter_mut()) {
                        *o = dot_unrolled(arow, bt.row(j));
                    }
                }
            }
        }
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    /// Panics unless the tensor is rank-2.
    pub(crate) fn transpose(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose needs rank-2, got {:?}", self.shape);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut data = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                data[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor {
            shape: vec![n, m],
            data,
        }
    }

    /// Borrows row `i` of a rank-2 tensor as a slice.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[f32] {
        debug_assert_eq!(self.rank(), 2);
        let n = self.shape[1];
        &self.data[i * n..(i + 1) * n]
    }

    /// True when every element is finite (no NaN / infinities).
    #[cfg(test)]
    pub(crate) fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

/// Inner product — the building block of the blocked matmul kernel.
/// Delegates to the runtime-dispatched kernel layer in `emblookup-ann`
/// (AVX2/NEON when available, an unrolled scalar otherwise), so the
/// matmul inner loop and the ANN distance loops share one home.
#[inline]
pub(crate) fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    emblookup_ann::kernels::dot(a, b)
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, … {:.4}] ({} elems)",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1],
                self.data.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn full_and_zeros() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(t.data().iter().all(|&x| x == 0.0));
        let o = Tensor::full(&[4], 2.5);
        assert!(o.data().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn from_vec_checks_len() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.at2(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_len() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Tensor::uniform(&[4, 4], -1.0, 1.0, &mut rng);
        let mut eye = Tensor::zeros(&[4, 4]);
        for i in 0..4 {
            eye.set2(i, i, 1.0);
        }
        let c = a.matmul(&eye);
        for (x, y) in a.data().iter().zip(c.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn blocked_matmul_matches_naive_on_odd_shapes() {
        // shapes straddling the kernel-selection boundary and the 4-wide
        // unroll / 32-column block edges, none a multiple of the tile
        let shapes = [
            (7, 13, 5),   // blocked (k >= 8), n smaller than one block
            (7, 5, 13),   // axpy fallback (k < 8)
            (1, 64, 33),  // row-vector path
            (3, 9, 67),   // blocked, n spans three partial blocks
            (5, 8, 32),   // exact unroll and block multiples
            (2, 130, 31), // k leaves a 2-element unroll remainder
        ];
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, k, n) in &shapes {
            let a = Tensor::uniform(&[m, k], -1.0, 1.0, &mut rng);
            let b = Tensor::uniform(&[k, n], -1.0, 1.0, &mut rng);
            let fast = a.matmul(&b);
            assert_eq!(fast.shape(), &[m, n]);
            for i in 0..m {
                for j in 0..n {
                    let naive: f32 = (0..k).map(|p| a.at2(i, p) * b.at2(p, j)).sum();
                    let got = fast.at2(i, j);
                    assert!(
                        (got - naive).abs() <= 1e-4 * naive.abs().max(1.0),
                        "({m},{k},{n}) at ({i},{j}): {got} vs {naive}"
                    );
                }
            }
        }
    }

    #[test]
    fn transpose_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::uniform(&[3, 5], -1.0, 1.0, &mut rng);
        let b = a.transpose().transpose();
        assert_eq!(a, b);
    }

    #[test]
    fn randn_has_roughly_right_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = Tensor::randn(&[10_000], 0.0, 1.0, &mut rng);
        let mean = t.sum() / t.len() as f32;
        let var = t.data().iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / t.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::vector(&[1.0, 2.0]);
        let b = Tensor::vector(&[10.0, 20.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6.0, 12.0]);
        a.scale_mut(2.0);
        assert_eq!(a.data(), &[12.0, 24.0]);
    }

    #[test]
    fn norm_is_euclidean() {
        let a = Tensor::vector(&[1.0, 2.0, 3.0]);
        assert!((a.norm() - 14.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn reshape_relabels() {
        let t = Tensor::from_vec(&[2, 3], vec![0.0; 6]).reshape(&[3, 2]);
        assert_eq!(t.shape(), &[3, 2]);
    }

    #[test]
    fn item_on_scalar() {
        assert_eq!(Tensor::scalar(5.0).item(), 5.0);
    }
}
