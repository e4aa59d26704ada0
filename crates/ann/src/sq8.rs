//! 8-bit scalar-quantized rows: the store [`crate::HnswPqIndex`] re-ranks
//! its pool from, one byte a dimension instead of four.
//!
//! Every dimension `j` has its own affine grid: `lo[j]` is the smallest
//! finite value any row holds there and `step[j]` is 1/255 of the range,
//! so a stored value decodes to `lo[j] + step[j] * code` at most
//! `step[j] / 2` from where it was. A query is scored against the decoded
//! rows without decoding them: [`Sq8Rows::prepare`] subtracts `lo` from
//! the query once, and [`crate::kernels::sq8_l2_gather`] sums
//! `(shifted[j] - step[j] * code)²` per row.

use crate::kernels;

/// Cache-line size the code array is aligned to, so that a 64-dimension
/// row is one line and not two halves.
const LINE: usize = 64;

/// `len` elements from `buf[start]`, the first element of the allocation
/// on a [`LINE`] boundary — the 8-bit rows here, and the fixed-width
/// neighbour rows of [`crate::HnswPqIndex`]. Never grown after `new`, so
/// the boundary stays where it was found.
pub(crate) struct LineAligned<T> {
    buf: Vec<T>,
    start: usize,
    len: usize,
}

impl<T: Copy> LineAligned<T> {
    /// `len` copies of `fill`, starting on a line.
    pub(crate) fn new(len: usize, fill: T) -> Self {
        let slack = LINE / std::mem::size_of::<T>().clamp(1, LINE) - 1;
        let buf = vec![fill; len + slack];
        // `align_offset` may decline to answer (usize::MAX): the elements
        // are then merely unaligned
        let start = match buf.as_ptr().align_offset(LINE) {
            offset if offset <= slack => offset,
            _ => 0,
        };
        LineAligned { buf, start, len }
    }

    pub(crate) fn as_slice(&self) -> &[T] {
        &self.buf[self.start..self.start + self.len]
    }

    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.buf[self.start..self.start + self.len]
    }
}

/// `n` rows of `dim` one-byte codes and the per-dimension grid (`dim`
/// entries of `lo` and of `step`) they decode on.
pub(crate) struct Sq8Rows {
    lo: Vec<f32>,
    step: Vec<f32>,
    /// The codes, row-major.
    codes: LineAligned<u8>,
}

impl Sq8Rows {
    /// Quantizes `row(0), .., row(n - 1)`, each of `dim` floats: one pass
    /// for every dimension's range, one to encode. A dimension that is
    /// constant over the rows gets `step = 0` and decodes exactly.
    /// Non-finite values take no part in the range and encode to an end
    /// of it (NaN to `lo`).
    ///
    /// # Panics
    /// Panics if `dim` is zero.
    pub(crate) fn encode<'v>(dim: usize, n: usize, row: impl Fn(usize) -> &'v [f32]) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        let mut lo = vec![f32::INFINITY; dim];
        let mut hi = vec![f32::NEG_INFINITY; dim];
        for i in 0..n {
            for ((l, h), &x) in lo.iter_mut().zip(&mut hi).zip(row(i)) {
                if x.is_finite() {
                    *l = l.min(x);
                    *h = h.max(x);
                }
            }
        }
        let mut step = vec![0.0f32; dim];
        for ((l, h), s) in lo.iter_mut().zip(&hi).zip(&mut step) {
            if *l > *h {
                *l = 0.0; // no finite value in this dimension
            }
            let width = (*h - *l) / 255.0;
            if width.is_finite() && width > 0.0 {
                *s = width;
            }
        }

        let mut codes = LineAligned::new(n * dim, 0u8);
        for (i, codes) in codes.as_mut_slice().chunks_exact_mut(dim).enumerate() {
            for (((c, &x), &l), &s) in codes.iter_mut().zip(row(i)).zip(&lo).zip(&step) {
                // the float-to-int cast saturates and maps NaN to 0
                *c = if s > 0.0 { ((x - l) / s).round() as u8 } else { 0 };
            }
        }
        Sq8Rows { lo, step, codes }
    }

    /// The code bytes, `dim` per row.
    fn codes(&self) -> &[u8] {
        self.codes.as_slice()
    }

    /// Bytes held: the codes and the two floats per dimension of the grid
    /// (the up to 63 bytes of alignment slack are not counted).
    pub(crate) fn nbytes(&self) -> usize {
        self.codes().len() + (self.lo.len() + self.step.len()) * std::mem::size_of::<f32>()
    }

    /// Writes `query - lo` into `shifted`: what [`Sq8Rows::score`] reads,
    /// computed once per query.
    ///
    /// # Panics
    /// Panics if `query` is not `dim` long.
    pub(crate) fn prepare(&self, query: &[f32], shifted: &mut Vec<f32>) {
        assert_eq!(query.len(), self.lo.len(), "query dim {} != {}", query.len(), self.lo.len());
        shifted.clear();
        shifted.extend(query.iter().zip(&self.lo).map(|(&q, &l)| q - l));
    }

    /// `out[i]` = squared L2 distance from the prepared query to the
    /// decoded row `ids[i]`, in one kernel call for the whole list.
    ///
    /// # Panics
    /// Panics if `shifted` did not come from [`Sq8Rows::prepare`] (wrong
    /// length), `out` is shorter than `ids`, or an id names no row.
    pub(crate) fn score(&self, shifted: &[f32], ids: &[u32], out: &mut [f32]) {
        kernels::sq8_l2_gather(shifted, &self.step, self.codes(), ids, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::VectorSet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn encode(vs: &VectorSet) -> Sq8Rows {
        Sq8Rows::encode(vs.dim(), vs.len(), |i| vs.get(i))
    }

    /// Row `i` as the store holds it.
    fn decode(rows: &Sq8Rows, i: usize) -> Vec<f32> {
        let dim = rows.lo.len();
        let codes = &rows.codes()[i * dim..][..dim];
        codes.iter().zip(&rows.lo).zip(&rows.step).map(|((&c, &l), &s)| l + s * f32::from(c)).collect()
    }

    #[test]
    fn round_trip_stays_within_half_a_step_per_dimension() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut vs = VectorSet::new(7);
        for _ in 0..300 {
            // a different scale per dimension: each needs its own grid
            let v: Vec<f32> = (0..7).map(|j| rng.gen_range(-1.0..1.0f32) * (1 + j * j) as f32 + j as f32).collect();
            vs.push(&v);
        }
        let rows = encode(&vs);
        assert_eq!(rows.nbytes(), 300 * 7 + 7 * 8);
        assert!(rows.step.iter().all(|&s| s > 0.0));
        for i in 0..vs.len() {
            for ((&x, &y), &s) in vs.get(i).iter().zip(&decode(&rows, i)).zip(&rows.step) {
                // half a step, plus the rounding of the grid arithmetic itself
                assert!((x - y).abs() <= s * 0.5 + x.abs() * 1e-6, "row {i}: {x} decoded to {y}, step {s}");
            }
        }
    }

    #[test]
    fn constant_dimensions_and_single_rows_decode_exactly() {
        let mut vs = VectorSet::new(3);
        for i in 0..20 {
            vs.push(&[0.1, i as f32, -7.25]);
        }
        let rows = encode(&vs);
        assert_eq!(rows.step[0], 0.0);
        assert_eq!(rows.step[2], 0.0);
        for i in 0..20 {
            let row = decode(&rows, i);
            assert_eq!((row[0], row[2]), (0.1, -7.25));
        }

        let mut one = VectorSet::new(4);
        one.push(&[1.0, -2.0, 3.5, 0.0]);
        let rows = encode(&one);
        assert_eq!(decode(&rows, 0), one.get(0));
        let (mut shifted, mut out) = (Vec::new(), [f32::NAN]);
        rows.prepare(one.get(0), &mut shifted);
        rows.score(&shifted, &[0], &mut out);
        assert_eq!(out[0], 0.0);
    }

    #[test]
    fn rows_start_on_a_cache_line() {
        let vs = VectorSet::from_flat(64, vec![0.5; 64 * 9]);
        let rows = encode(&vs);
        assert_eq!(rows.codes().len(), 64 * 9);
        assert_eq!(rows.codes().as_ptr().align_offset(LINE), 0);
    }

    #[test]
    fn line_aligned_buffers_start_on_a_line_whatever_the_element() {
        for len in [0usize, 1, 15, 16, 33] {
            let bytes = LineAligned::new(len, 7u8);
            let words = LineAligned::new(len, 9u32);
            assert_eq!((bytes.as_slice().len(), words.as_slice().len()), (len, len));
            assert_eq!(bytes.as_slice().as_ptr().align_offset(LINE), 0);
            assert_eq!(words.as_slice().as_ptr().align_offset(LINE), 0);
            assert!(bytes.as_slice().iter().all(|&b| b == 7) && words.as_slice().iter().all(|&w| w == 9));
        }
    }

    #[test]
    fn no_rows_is_an_empty_store() {
        let rows = encode(&VectorSet::new(5));
        assert!(rows.codes().is_empty());
        assert_eq!(rows.nbytes(), 5 * 8);
        let mut shifted = Vec::new();
        rows.prepare(&[1.0; 5], &mut shifted);
        assert_eq!(shifted, [1.0; 5]);
        rows.score(&shifted, &[], &mut []);
    }

    #[test]
    fn non_finite_rows_do_not_panic_and_leave_the_grid_finite() {
        let mut vs = VectorSet::new(3);
        vs.push(&[f32::NAN, 1.0, f32::INFINITY]);
        vs.push(&[f32::NEG_INFINITY, 2.0, f32::NAN]);
        vs.push(&[0.5, 3.0, f32::NAN]);
        vs.push(&[1.5, f32::MAX, f32::MIN]);
        let rows = encode(&vs);
        assert!(rows.lo.iter().chain(&rows.step).all(|x| x.is_finite()), "{:?} {:?}", rows.lo, rows.step);
        // the finite values of dimension 0 keep their grid
        assert_eq!((rows.lo[0], rows.step[0]), (0.5, 1.0 / 255.0));
        assert_eq!(rows.codes()[0], 0, "NaN encodes to lo");
        assert_eq!(rows.codes()[3], 0, "-inf encodes to lo");
        let (mut shifted, mut out) = (Vec::new(), [0.0f32; 4]);
        rows.prepare(&[f32::NAN, 0.0, f32::INFINITY], &mut shifted);
        rows.score(&shifted, &[0, 1, 2, 3], &mut out);
    }
}
