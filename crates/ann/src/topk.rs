//! Bounded top-k selection by distance.

/// One search hit: index into the collection plus squared L2 distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the matched vector.
    pub index: usize,
    /// Squared Euclidean distance to the query.
    pub dist: f32,
}

/// Collects the `k` smallest-distance candidates seen so far.
///
/// Implemented as a bounded binary max-heap keyed on distance, so a stream
/// of `n` candidates costs `O(n log k)`.
///
/// Ties are broken by heap position, not by insertion order or index. A
/// candidate enters a full collector only when strictly closer than the
/// worst it holds, so a later candidate never displaces an earlier one at
/// the same distance. An entering candidate evicts the hit at the heap's
/// root, and when several held hits tie at the worst distance, which one
/// that is follows from the heap's shape: `TopK::new(2)` fed (1, 5.0),
/// (2, 5.0), (3, 1.0) keeps 2 and 3, and `TopK::new(3)` fed (10, 2.0),
/// (11, 2.0), (12, 2.0), (13, 0.5) keeps 11, 12 and 13.
/// [`TopK::into_sorted`] leaves equal distances in heap order.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    heap: Vec<Neighbor>, // max-heap on dist
}

impl TopK {
    /// Creates a collector for the `k` nearest candidates. All `k` slots
    /// are reserved up front, so callers bound `k` by the number of
    /// candidates they can offer (an index clamps it to its `len()`).
    ///
    /// # Panics
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "top-k with k = 0");
        TopK { k, heap: Vec::with_capacity(k) }
    }

    /// The current worst (largest) accepted distance, or `f32::INFINITY`
    /// while fewer than `k` candidates are held. Useful for pruning.
    pub fn threshold(&self) -> f32 {
        if self.heap.len() < self.k {
            f32::INFINITY
        } else {
            self.heap[0].dist
        }
    }

    /// Offers a candidate; it is kept only if it beats the current top-k.
    pub fn push(&mut self, index: usize, dist: f32) {
        if self.heap.len() < self.k {
            self.heap.push(Neighbor { index, dist });
            self.sift_up(self.heap.len() - 1);
        } else if dist < self.heap[0].dist {
            self.heap[0] = Neighbor { index, dist };
            self.sift_down(0);
        }
    }

    /// [`TopK::push`] for `dists[l]` under index `base + l`, in order:
    /// the same hits in the same order, but the bar a candidate has to
    /// beat sits in a local across the block and is re-read only after a
    /// push — a scan that offers every code of an index spends more on
    /// the calls it loses than on the few it wins.
    pub(crate) fn offer_block(&mut self, base: usize, dists: &[f32]) {
        let mut threshold = self.threshold();
        for (l, &dist) in dists.iter().enumerate() {
            // a collector that is not full takes anything, NaN included
            if dist < threshold || self.heap.len() < self.k {
                self.push(base + l, dist);
                threshold = self.threshold();
            }
        }
    }

    /// Number of candidates currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Consumes the collector, returning hits sorted by ascending distance.
    pub fn into_sorted(mut self) -> Vec<Neighbor> {
        self.heap.sort_by(|a, b| a.dist.total_cmp(&b.dist));
        self.heap
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].dist > self.heap[parent].dist {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < self.heap.len() && self.heap[l].dist > self.heap[largest].dist {
                largest = l;
            }
            if r < self.heap.len() && self.heap[r].dist > self.heap[largest].dist {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.heap.swap(i, largest);
            i = largest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_smallest() {
        let mut tk = TopK::new(3);
        for (i, d) in [5.0, 1.0, 4.0, 2.0, 3.0, 0.5].iter().enumerate() {
            tk.push(i, *d);
        }
        let hits = tk.into_sorted();
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].dist, 0.5);
        assert_eq!(hits[1].dist, 1.0);
        assert_eq!(hits[2].dist, 2.0);
        assert_eq!(hits[0].index, 5);
    }

    #[test]
    fn fewer_candidates_than_k() {
        let mut tk = TopK::new(10);
        tk.push(0, 1.0);
        tk.push(1, 0.5);
        let hits = tk.into_sorted();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].index, 1);
    }

    #[test]
    fn threshold_tracks_worst_kept() {
        let mut tk = TopK::new(2);
        assert_eq!(tk.threshold(), f32::INFINITY);
        tk.push(0, 3.0);
        assert_eq!(tk.threshold(), f32::INFINITY);
        tk.push(1, 1.0);
        assert_eq!(tk.threshold(), 3.0);
        tk.push(2, 0.5);
        assert_eq!(tk.threshold(), 1.0);
    }

    #[test]
    fn offer_block_equals_one_push_per_distance() {
        // 600 distances in blocks of 256 as `PqIndex::search` offers them:
        // ties inside and across blocks, a NaN and an infinity among the
        // first k (taken while the collector fills) and later (never)
        let mut dists: Vec<f32> = (0..600).map(|i| ((i * 37) % 101) as f32 * 0.5).collect();
        (dists[3], dists[7], dists[300], dists[301]) = (f32::NAN, f32::INFINITY, f32::NAN, f32::INFINITY);
        for k in [1, 5, 10, 600] {
            let (mut pushed, mut offered) = (TopK::new(k), TopK::new(k));
            for (i, &d) in dists.iter().enumerate() {
                pushed.push(i, d);
            }
            for (b, block) in dists.chunks(256).enumerate() {
                offered.offer_block(b * 256, block);
            }
            let hits = |tk: TopK| tk.into_sorted().iter().map(|h| (h.index, h.dist.to_bits())).collect::<Vec<_>>();
            assert_eq!(hits(offered), hits(pushed), "k {k}");
        }
    }

    #[test]
    fn ties_follow_the_heap_not_insertion_order() {
        // the documented cases: moving to a (distance, index) order would
        // keep 1 and 3, then 10, 11 and 13 — and change which of a tied
        // answer's ids every search returns, so it has to break this test
        let hits = |k: usize, offers: &[(usize, f32)]| {
            let mut tk = TopK::new(k);
            for &(i, d) in offers {
                tk.push(i, d);
            }
            tk.into_sorted().iter().map(|h| (h.index, h.dist)).collect::<Vec<_>>()
        };
        assert_eq!(hits(2, &[(1, 5.0), (2, 5.0), (3, 1.0)]), [(3, 1.0), (2, 5.0)]);
        assert_eq!(hits(3, &[(10, 2.0), (11, 2.0), (12, 2.0), (13, 0.5)]), [(13, 0.5), (11, 2.0), (12, 2.0)]);
        // a later candidate at the worst distance does not enter a full collector
        assert_eq!(hits(2, &[(1, 5.0), (2, 1.0), (3, 5.0)]), [(2, 1.0), (1, 5.0)]);
    }

    #[test]
    #[should_panic(expected = "k = 0")]
    fn zero_k_panics() {
        let _ = TopK::new(0);
    }

    #[test]
    fn sorted_output_is_ascending() {
        let mut tk = TopK::new(5);
        for i in 0..100 {
            tk.push(i, ((i * 37) % 100) as f32);
        }
        let hits = tk.into_sorted();
        for w in hits.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }
}
