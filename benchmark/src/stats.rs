//! Percentiles, medians and quartiles — the only statistics the
//! benchmark reports.
//!
//! A latency metric is never the percentile of one long run: the run is
//! cut into segments (slices of 100 ms), each yields its own percentile,
//! scaled by the host speed measured around it (see `hostref`), and the
//! metric is the **median over segments**.

/// Nearest-rank percentile (`p` in `0..=100`) of an ascending slice;
/// `0.0` for an empty one.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Sorts `samples` in place and returns its nearest-rank percentile.
pub fn percentile_of(samples: &mut [u64], p: f64) -> f64 {
    samples.sort_unstable();
    percentile(samples, p)
}

/// Median, first and third quartile of a set of per-segment values, and
/// how many there were.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Distance between the quartiles as a share of the median — the
    /// spread the acceptance rule compares against a metric's bound.
    pub fn rel_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the exclusive method), so the numbers printed here are the ones
/// the acceptance check recomputes.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    match m {
        0 => Summary {
            median: 0.0,
            q1: 0.0,
            q3: 0.0,
            n: 0,
        },
        1 => Summary {
            median: v[0],
            q1: v[0],
            q3: v[0],
            n: 1,
        },
        _ => {
            let cut = |i: usize| {
                let j = (i * (m + 1) / 4).clamp(1, m - 1);
                let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Summary {
                median: cut(2),
                q1: cut(1),
                q3: cut(3),
                n: m,
            }
        }
    }
}

/// Median of per-segment values.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// One metric over a run: each segment contributes the `p`-th percentile
/// of its own samples (nanoseconds), times its own scale (unit and host
/// speed); the metric is the median of those.
pub fn median_of_segments<'a>(
    segments: impl IntoIterator<Item = (&'a [u64], f64)>,
    p: f64,
) -> Summary {
    let per_segment: Vec<f64> = segments
        .into_iter()
        .filter(|(s, _)| !s.is_empty())
        .map(|(s, scale)| {
            let mut sorted = s.to_vec();
            percentile_of(&mut sorted, p) * scale
        })
        .collect();
    summarize(&per_segment)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let mut unsorted = vec![9, 1, 5];
        assert_eq!(percentile_of(&mut unsorted, 50.0), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert!((summarize(&v).rel_spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn metric_is_the_median_of_per_segment_percentiles() {
        // One slow segment must not move the metric.
        let fast: Vec<u64> = (0..100).map(|i| 1000 + i).collect();
        let slow: Vec<u64> = (0..100).map(|i| 9000 + i).collect();
        let segs: Vec<(&[u64], f64)> = [&fast, &fast, &slow, &fast, &fast]
            .into_iter()
            .map(|s| (&s[..], 1e-3))
            .collect();
        let s = median_of_segments(segs, 50.0);
        assert!((s.median - 1.049).abs() < 1e-9, "{s:?}");
        assert_eq!(s.n, 5);
        // Empty segments are skipped, not counted as zero.
        let empty: &[u64] = &[];
        let s = median_of_segments(vec![(empty, 1.0), (&fast[..], 1.0)], 50.0);
        assert_eq!((s.median, s.n), (1049.0, 1));
        // A segment measured at half the host speed took twice as long:
        // its scale brings it back beside the others.
        let halved: Vec<(&[u64], f64)> = vec![(&fast, 1.0), (&slow, 1049.0 / 9049.0), (&fast, 1.0)];
        let s = median_of_segments(halved, 50.0);
        assert!(
            (s.q1 - 1049.0).abs() < 1e-6 && (s.q3 - 1049.0).abs() < 1e-6,
            "{s:?}"
        );
    }
}
