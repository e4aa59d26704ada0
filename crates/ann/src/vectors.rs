//! Flat storage for fixed-dimension embedding collections.


/// A collection of `n` vectors of equal dimension, stored row-major in one
/// contiguous buffer (the `I` matrix of the paper, `N × D`).
#[derive(Debug, Clone, PartialEq)]
pub struct VectorSet {
    dim: usize,
    data: Vec<f32>,
}

impl VectorSet {
    /// Creates an empty collection of the given dimension.
    ///
    /// # Panics
    /// Panics if `dim` is zero.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        VectorSet { dim, data: Vec::new() }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if the buffer length is not a multiple of `dim`.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert_eq!(
            data.len() % dim,
            0,
            "buffer length {} not a multiple of dim {}",
            data.len(),
            dim
        );
        VectorSet { dim, data }
    }

    /// Appends one vector.
    ///
    /// # Panics
    /// Panics if `v.len() != dim`.
    pub fn push(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "expected dim {}, got {}", self.dim, v.len());
        self.data.extend_from_slice(v);
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// True when no vectors are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrows vector `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterates over all vectors.
    pub fn iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.dim)
    }

    /// Borrows the whole row-major buffer.
    pub(crate) fn flat(&self) -> &[f32] {
        &self.data
    }

    /// In-memory size of the raw vectors in bytes (4 bytes per element),
    /// used by the index-size comparisons of the evaluation.
    pub(crate) fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

/// Squared Euclidean distance between two equal-length slices.
///
/// The hot loop of every index. Kept as a re-export surface for
/// backwards compatibility; the implementation is the runtime-dispatched
/// kernel in [`crate::kernels`] (SIMD when the CPU supports it, the
/// unrolled scalar reference otherwise).
#[inline]
pub fn sq_l2(a: &[f32], b: &[f32]) -> f32 {
    crate::kernels::sq_l2(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut vs = VectorSet::new(3);
        vs.push(&[1.0, 2.0, 3.0]);
        vs.push(&[4.0, 5.0, 6.0]);
        assert_eq!(vs.len(), 2);
        assert_eq!(vs.get(1), &[4.0, 5.0, 6.0]);
        assert_eq!(vs.nbytes(), 24);
    }

    #[test]
    #[should_panic(expected = "expected dim")]
    fn push_wrong_dim_panics() {
        let mut vs = VectorSet::new(3);
        vs.push(&[1.0]);
    }

    #[test]
    fn from_flat_validates() {
        let vs = VectorSet::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(vs.len(), 2);
    }

    #[test]
    fn sq_l2_known() {
        assert_eq!(sq_l2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(sq_l2(&[1.0], &[1.0]), 0.0);
    }
}
