//! Lock-free log-bucketed latency histogram (an `hdrhistogram`-lite).
//!
//! Values (typically nanoseconds) below [`LINEAR_CUTOFF`] land in exact
//! unit buckets; above it each power-of-two octave is split into
//! [`SUBS_PER_OCTAVE`] linear sub-buckets, bounding the relative
//! quantization error of any reported quantile by `1/SUBS_PER_OCTAVE`
//! (6.25%). Recording is a handful of relaxed atomic adds — safe to call
//! concurrently from any number of threads, with no lock anywhere.

use crate::sync::{RelaxedU64, SeqPair};

/// Values below this are counted in exact unit buckets.
const LINEAR_CUTOFF: u64 = 16;
/// Linear sub-buckets per power-of-two octave above the cutoff.
const SUBS_PER_OCTAVE: usize = 16;
/// First octave exponent above the linear region (`2^4 == LINEAR_CUTOFF`).
const FIRST_OCTAVE: u32 = 4;
/// Total bucket count: 16 unit buckets + 16 per octave for 2^4..2^63.
const NUM_BUCKETS: usize = LINEAR_CUTOFF as usize + (64 - FIRST_OCTAVE as usize) * SUBS_PER_OCTAVE;

/// Bucket index for a value.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= FIRST_OCTAVE
    let sub = ((v >> (exp - FIRST_OCTAVE)) & (SUBS_PER_OCTAVE as u64 - 1)) as usize;
    LINEAR_CUTOFF as usize + (exp - FIRST_OCTAVE) as usize * SUBS_PER_OCTAVE + sub
}

/// Inclusive lower bound of a bucket.
#[inline]
fn bucket_low(i: usize) -> u64 {
    if i < LINEAR_CUTOFF as usize {
        return i as u64;
    }
    let rel = i - LINEAR_CUTOFF as usize;
    let exp = FIRST_OCTAVE + (rel / SUBS_PER_OCTAVE) as u32;
    let sub = (rel % SUBS_PER_OCTAVE) as u64;
    (1u64 << exp) + (sub << (exp - FIRST_OCTAVE))
}

/// Representative value reported for a bucket (its midpoint).
#[inline]
fn bucket_mid(i: usize) -> u64 {
    if i < LINEAR_CUTOFF as usize {
        return i as u64;
    }
    let rel = i - LINEAR_CUTOFF as usize;
    let exp = FIRST_OCTAVE + (rel / SUBS_PER_OCTAVE) as u32;
    let width = 1u64 << (exp - FIRST_OCTAVE);
    bucket_low(i) + width / 2
}

/// One exemplar: a recorded value linked to the trace that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The recorded value (typically nanoseconds).
    pub value: u64,
    /// The non-zero trace id of the request that recorded it.
    pub trace_id: u64,
}

/// The `(value, trace_id)` pair a slot holds, if a traced record wrote one.
fn exemplar(slot: &SeqPair) -> Option<Exemplar> {
    let (value, trace_id) = slot.read()?;
    (trace_id != 0).then_some(Exemplar { value, trace_id })
}

/// Concurrent log-bucketed histogram over `u64` values.
pub struct Histogram {
    buckets: Box<[RelaxedU64; NUM_BUCKETS]>,
    count: RelaxedU64,
    sum: RelaxedU64,
    min: RelaxedU64,
    max: RelaxedU64,
    /// `(value, trace_id)` of the largest / the latest exemplar.
    ex_max: SeqPair,
    ex_last: SeqPair,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        // `RelaxedU64` is not Copy; build the array through a Vec once.
        let v: Vec<RelaxedU64> = (0..NUM_BUCKETS).map(|_| RelaxedU64::new(0)).collect();
        #[expect(clippy::expect_used, reason = "the Vec is built with exactly NUM_BUCKETS elements one line up")]
        let buckets: Box<[RelaxedU64; NUM_BUCKETS]> = v.into_boxed_slice().try_into().expect("bucket count is fixed");
        Histogram {
            buckets,
            count: RelaxedU64::new(0),
            sum: RelaxedU64::new(0),
            min: RelaxedU64::new(u64::MAX),
            max: RelaxedU64::new(0),
            ex_max: SeqPair::new(),
            ex_last: SeqPair::new(),
        }
    }

    /// Records one value. Lock-free: five relaxed atomic RMW operations.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].add(1);
        self.count.add(1);
        self.sum.add(value);
        self.min.min(value);
        self.max.max(value);
    }

    /// Records a [`std::time::Duration`] as nanoseconds (saturating).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one value and links it to a trace id as an exemplar.
    /// The "last" exemplar always updates (best effort); the "max"
    /// exemplar updates when `value` is at least the largest exemplar
    /// value seen, so the p99 line of the Prometheus export points at
    /// a genuinely slow trace. `trace_id == 0` records without an
    /// exemplar.
    pub fn record_with_exemplar(&self, value: u64, trace_id: u64) {
        self.record(value);
        if trace_id == 0 {
            return;
        }
        self.ex_last.offer(value, trace_id);
        if value >= self.ex_max.first() {
            self.ex_max.offer(value, trace_id);
        }
    }

    /// [`Histogram::record_with_exemplar`] for a duration in
    /// nanoseconds (saturating).
    pub fn record_duration_with_exemplar(&self, d: std::time::Duration, trace_id: u64) {
        self.record_with_exemplar(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX), trace_id);
    }

    /// Records the same value `n` times in O(1) — used to attribute a
    /// batch's wall time across its queries without `n` loop iterations.
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(value)].add(n);
        self.count.add(n);
        self.sum.add(value.saturating_mul(n));
        self.min.min(value);
        self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.get()
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(RelaxedU64::get).collect();
        HistogramSnapshot {
            count: self.count.get(),
            sum: self.sum.get(),
            min: self.min.get(),
            max: self.max.get(),
            buckets,
            exemplar_max: exemplar(&self.ex_max),
            exemplar_last: exemplar(&self.ex_last),
        }
    }
}

/// Immutable copy of a [`Histogram`], with quantile queries.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
    exemplar_max: Option<Exemplar>,
    exemplar_last: Option<Exemplar>,
}

impl HistogramSnapshot {
    /// Smallest recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The exemplar with the largest value recorded via
    /// [`Histogram::record_with_exemplar`], if any.
    pub fn exemplar_max(&self) -> Option<Exemplar> {
        self.exemplar_max
    }

    /// The most recent exemplar recorded via
    /// [`Histogram::record_with_exemplar`], if any.
    pub fn exemplar_last(&self) -> Option<Exemplar> {
        self.exemplar_last
    }

    /// Mean of recorded values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) of recorded values, or 0 when the
    /// histogram is empty. Reported values are bucket midpoints clamped to
    /// the observed `[min, max]`, so e.g. a single-sample histogram
    /// reports that sample exactly at every quantile.
    ///
    /// # Panics
    /// Panics when `q` is not in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0,1]");
        if self.count == 0 {
            return 0;
        }
        // rank of the target sample, 1-based
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_monotone_and_consistent() {
        // every bucket's low bound maps back to that bucket, and bounds
        // strictly increase
        let mut prev = None;
        for i in 0..NUM_BUCKETS {
            let lo = bucket_low(i);
            assert_eq!(bucket_of(lo), i, "low bound of bucket {i} maps elsewhere");
            if let Some(p) = prev {
                assert!(lo > p, "bucket {i} bound {lo} <= previous {p}");
            }
            prev = Some(lo);
        }
        // spot-check the linear/log boundary
        assert_eq!(bucket_of(15), 15);
        assert_eq!(bucket_of(16), 16);
        assert_eq!(bucket_of(31), 31);
        assert_eq!(bucket_of(32), 32);
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [100u64, 1_000, 12_345, 1_000_000, 123_456_789, 10_u64.pow(12)] {
            let mid = bucket_mid(bucket_of(v));
            let err = (mid as f64 - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / SUBS_PER_OCTAVE as f64, "value {v} err {err}");
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_sample_is_exact_at_every_quantile() {
        let h = Histogram::new();
        h.record(12_345);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 12_345, "q={q}");
        }
    }

    #[test]
    fn quantiles_of_uniform_stream() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10_000);
        assert_eq!(s.sum, 10_000 * 10_001 / 2);
        let within = |got: u64, want: u64| {
            let err = (got as f64 - want as f64).abs() / want as f64;
            assert!(err < 0.07, "got {got}, want ~{want}");
        };
        within(s.p50(), 5_000);
        within(s.p90(), 9_000);
        within(s.p99(), 9_900);
        assert_eq!(s.min(), 1);
        assert_eq!(s.max(), 10_000);
    }

    #[test]
    fn quantile_extremes_hit_min_and_max() {
        let h = Histogram::new();
        for v in [5u64, 500, 50_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 5);
        assert_eq!(s.quantile(1.0).clamp(0, s.max()), s.quantile(1.0));
    }

    #[test]
    fn concurrent_records_are_all_counted() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * 1_000 + i % 997);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, threads * per_thread);
        assert_eq!(s.buckets.iter().sum::<u64>(), threads * per_thread);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn quantile_rejects_out_of_range() {
        Histogram::new().snapshot().quantile(1.5);
    }

    #[test]
    fn record_n_zero_is_a_no_op() {
        let h = Histogram::new();
        h.record_n(12_345, 0);
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.sum, 0);
        // min/max untouched: an empty histogram still reports zeros
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.p99(), 0);
    }

    #[test]
    fn record_n_one_matches_record() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(777);
        b.record_n(777, 1);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_eq!(sa.count, sb.count);
        assert_eq!(sa.sum, sb.sum);
        assert_eq!(sa.min(), sb.min());
        assert_eq!(sa.max(), sb.max());
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(sa.quantile(q), sb.quantile(q), "q={q}");
        }
    }

    #[test]
    fn record_n_matches_n_records() {
        let a = Histogram::new();
        let b = Histogram::new();
        for _ in 0..1_000 {
            a.record(42);
        }
        b.record_n(42, 1_000);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_eq!(sa.count, sb.count);
        assert_eq!(sa.sum, sb.sum);
        assert_eq!(sa.p50(), sb.p50());
        assert_eq!(sa.p99(), sb.p99());
    }

    #[test]
    fn exemplars_track_max_and_last() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().exemplar_max(), None);
        h.record_with_exemplar(100, 0xA);
        h.record_with_exemplar(5_000, 0xB);
        h.record_with_exemplar(300, 0xC);
        h.record_with_exemplar(77, 0); // no trace: counted, no exemplar
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.exemplar_max(), Some(Exemplar { value: 5_000, trace_id: 0xB }));
        assert_eq!(s.exemplar_last(), Some(Exemplar { value: 300, trace_id: 0xC }));
    }

    #[test]
    fn record_n_saturates_sum_instead_of_overflowing() {
        let h = Histogram::new();
        h.record_n(u64::MAX / 2, 3); // value * n overflows u64
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, u64::MAX, "sum must saturate, not wrap");
        assert_eq!(s.max(), u64::MAX / 2);
        // quantiles stay within the observed range despite the saturated sum
        assert!(s.p99() <= s.max());
    }
}
