//! The full scan behind [`crate::FlatIndex::search`] and
//! [`crate::PqIndex::search`]: every row scored in blocks of [`BLOCK`]
//! and offered to one [`TopK`] — on the calling thread, or, for a flat
//! index above its grain, in one chunk per pool thread whose entrants
//! are replayed in row order.
//!
//! *Why the replay is exact.* A row the sequential scan takes is below
//! the `k`-th smallest distance of all rows before it, hence below the
//! `k`-th smallest of its own chunk's rows before it, so it entered its
//! chunk's collector too; a row no chunk took was rejected by the
//! sequential scan as well, and a rejected push leaves a [`TopK`]
//! untouched. Offering every chunk's entrants, chunk by chunk in row
//! order, to one collector therefore makes exactly the sequential scan's
//! accepted pushes in order: the same heap, so the same ids, distance
//! bits and tie order at every pool width. NaN keeps the argument: see
//! [`TopK::offer_block_logged`].

use crate::topk::{Neighbor, TopK};
use emblookup_pool::Pool;

/// Rows scored per kernel call (one stack block of distances).
const BLOCK: usize = 256;

/// The `k` smallest of rows `0..n` (`n > 0`, `k > 0`), ascending;
/// `score(lo, out)` writes the distances of rows `lo..lo + out.len()`
/// (at most [`BLOCK`] rows a call). With a `split` of `(pool, grain)`, a
/// scan over more than `grain` rows is cut into `⌈n / grain⌉` chunks, at
/// most one per pool thread; otherwise it runs on the caller with no pool
/// call and no allocation beyond the result.
pub(crate) fn top_k<F>(n: usize, k: usize, split: Option<(&Pool, usize)>, score: F) -> Vec<Neighbor>
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    // a scan returns at most `n` hits, whatever `k` asks for
    let k = k.min(n);
    let mut tk = TopK::new(k);
    let chunks = split.map_or(1, |(pool, grain)| n.div_ceil(grain.max(1)).min(pool.threads()));
    match split {
        Some((pool, _)) if chunks > 1 => {
            let len = n.div_ceil(chunks);
            let logs = pool.parallel_map(chunks, 1, |c| {
                let (lo, hi) = (c * len, ((c + 1) * len).min(n));
                let mut local = TopK::new(k);
                // rows in random order log ≈ k (1 + ln(rows / k)) entrants:
                // 79 for 10 of 9 530
                let mut entrants = Vec::with_capacity(k.saturating_mul(8).min(hi - lo));
                blocks(lo, hi, &score, |base, dists| local.offer_block_logged(base, dists, &mut entrants));
                entrants
            });
            for hit in logs.iter().flatten() {
                tk.push(hit.index, hit.dist);
            }
        }
        _ => blocks(0, n, &score, |base, dists| tk.offer_block(base, dists)),
    }
    tk.into_sorted()
}

/// Scores rows `lo..hi` [`BLOCK`] at a time and hands each block's
/// distances to `offer` with the block's first row.
fn blocks(lo: usize, hi: usize, score: &impl Fn(usize, &mut [f32]), mut offer: impl FnMut(usize, &[f32])) {
    let mut dists = [0.0f32; BLOCK];
    let mut base = lo;
    while base < hi {
        let out = &mut dists[..(hi - base).min(BLOCK)];
        score(base, out);
        offer(base, out);
        base += out.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scan a split must equal: one push per row, in row order.
    fn pushed(dists: &[f32], k: usize) -> Vec<(usize, u32)> {
        let mut tk = TopK::new(k.min(dists.len()));
        for (i, &d) in dists.iter().enumerate() {
            tk.push(i, d);
        }
        tk.into_sorted().iter().map(|h| (h.index, h.dist.to_bits())).collect()
    }

    fn scanned(dists: &[f32], k: usize, grain: usize, pool: &Pool) -> Vec<(usize, u32)> {
        let score = |lo: usize, out: &mut [f32]| out.copy_from_slice(&dists[lo..lo + out.len()]);
        top_k(dists.len(), k, Some((pool, grain)), score).iter().map(|h| (h.index, h.dist.to_bits())).collect()
    }

    #[test]
    fn a_split_scan_makes_the_sequential_pushes() {
        // distances no flat or PQ row yields — -inf, and a NaN as row 0,
        // which pins the sequential collector's root for good — beside
        // ties, +inf and NaN inside and across every chunk boundary
        let pools = [1, 2, 4].map(Pool::with_threads);
        let n = 1000;
        let base: Vec<f32> = (0..n).map(|i| ((i * 37) % 101) as f32 * 0.5).collect();
        let mut cases = vec![base.clone(), vec![2.0; n]];
        let mut odd = base.clone();
        for (i, d) in [(3, f32::NAN), (7, f32::INFINITY), (250, f32::NEG_INFINITY), (499, f32::NAN), (500, 0.0), (501, f32::NAN)] {
            odd[i] = d;
        }
        cases.push(odd);
        // a NaN opening every chunk of a split into 2 or 4
        let mut nan_starts = base.clone();
        for i in [250, 500, 750] {
            nan_starts[i] = f32::NAN;
        }
        cases.push(nan_starts);
        let mut nan_first = base;
        nan_first[0] = f32::NAN;
        nan_first[600] = f32::NAN;
        cases.push(nan_first);
        cases.push((0..n).rev().map(|i| i as f32).collect());
        for (c, dists) in cases.iter().enumerate() {
            for k in [1, 3, 10, 300, n, n + 5, usize::MAX] {
                let want = pushed(dists, k);
                for pool in &pools {
                    for grain in [1, 250, 333, 999, 1000] {
                        let got = scanned(dists, k, grain, pool);
                        assert_eq!(got, want, "case {c} k {k} width {} grain {grain}", pool.threads());
                    }
                }
            }
        }
    }
}
