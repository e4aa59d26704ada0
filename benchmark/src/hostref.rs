//! The host-speed reference: how fast this machine is *right now*.
//!
//! The benchmark runs on a few cores of a shared host. Identical code
//! there runs at 0.3–1.0 of its best speed, in regimes that last tens of
//! seconds to minutes (neighbours on the same physical cores and caches:
//! steal time stays 0 and a dependent ALU chain hardly moves, while
//! anything with a high instruction rate or a working set beyond L2
//! does). No statistic of a 10–20 s run removes that — a whole run sits
//! inside one regime — so a timed metric is measured *against a
//! reference that slows down with it*.
//!
//! A run is cut into slices of 100 ms. Between two slices the harness
//! times two fixed kernels of its own, 1–2 ms together:
//!
//! * `compute`: sum of squares over 256 KiB of `f32`, many passes —
//!   L2-resident, bound by the vector units;
//! * `stream`: one pass of the same sum over 8 MiB — bound by L3 and
//!   memory.
//!
//! The host speed of a sample is the geometric mean of
//! `nominal time / measured time` of the two (1.0 = this box when quiet,
//! smaller when contended); the host speed of a slice is the mean of the
//! samples before and after it. The vCPUs are slowed independently of
//! each other (one can sit at 0.3 for ten seconds while the other runs
//! at 0.9), so a workload that keeps two threads busy is sampled on two
//! threads at once and a single caller on its own thread. A host-adjusted latency is
//! `measured × speed`, a host-adjusted rate `measured / speed`: what the
//! slice would have measured at nominal speed. On 100 s series of each
//! workload the quartile distance of 9 s windows fell from 9–26 % of the
//! median (raw) to 2–6 % (adjusted); either kernel alone did worse than
//! the pair on at least one workload, and a one-thread reference made
//! `served_mixed` worse than no adjustment at all.
//!
//! The kernels are frozen with the benchmark: a change to the program
//! cannot move them, so a faster program shows as a better adjusted
//! number exactly as it shows in the raw one.

use std::time::Instant;

/// `f32`s the `compute` kernel walks: 256 KiB, beyond L1, inside L2.
const COMPUTE_LEN: usize = 1 << 16;
/// Passes of the `compute` kernel per sample.
const COMPUTE_PASSES: usize = 200;
/// `f32`s the `stream` kernel walks once: 8 MiB, beyond L2.
const STREAM_LEN: usize = 1 << 21;
/// What the kernels take on the quiet 2-vCPU reference box (Xeon
/// Emerald Rapids @ 2.1 GHz). Only the scale of the adjusted numbers
/// depends on these: on other hardware the speed is a constant factor
/// off 1.0, the same for the parent and for a change.
const NOMINAL_COMPUTE_MS: f64 = 0.76;
const NOMINAL_STREAM_MS: f64 = 1.03;

/// Samples of one burst, and what a burst reads on the quiet reference
/// box: run back to back — no workload in between, caches warm, the core
/// at full clock — the kernels are this much faster than between the
/// slices of a workload.
const BURST_SAMPLES: usize = 30;
const NOMINAL_BURST_SPEED: f64 = 1.35;

/// Sum of squares with sixteen independent accumulators, so that the
/// loop is bound by vector throughput, not by one add's latency.
#[inline(never)]
fn sum_squares(values: &[f32]) -> f32 {
    let mut acc = [0f32; 16];
    for chunk in values.chunks_exact(16) {
        for (a, v) in acc.iter_mut().zip(chunk) {
            *a += v * v;
        }
    }
    acc.iter().sum()
}

/// The reference kernels and the buffer they read.
pub struct HostRef {
    buf: Vec<f32>,
}

impl Default for HostRef {
    fn default() -> HostRef {
        HostRef {
            buf: (0..STREAM_LEN).map(|i| (i % 97) as f32 * 0.01).collect(),
        }
    }
}

impl HostRef {
    /// `(compute, stream)` kernel times in milliseconds, once each.
    fn kernel_ms(&self) -> (f64, f64) {
        let t = Instant::now();
        for _ in 0..COMPUTE_PASSES {
            std::hint::black_box(sum_squares(std::hint::black_box(&self.buf[..COMPUTE_LEN])));
        }
        let compute = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        std::hint::black_box(sum_squares(std::hint::black_box(&self.buf)));
        (compute, t.elapsed().as_secs_f64() * 1e3)
    }

    /// One sample of the host speed: 1.0 is the quiet reference box.
    pub fn speed(&self) -> f64 {
        speed_of(self.kernel_ms())
    }

    /// One sample taken on `threads` threads at once: the mean of their
    /// speeds.
    pub fn speed_on(&self, threads: usize) -> f64 {
        if threads <= 1 {
            return self.speed();
        }
        let speeds: Vec<f64> = std::thread::scope(|scope| {
            let others: Vec<_> = (1..threads).map(|_| scope.spawn(|| self.speed())).collect();
            let mine = self.speed();
            let mut all = vec![mine];
            all.extend(
                others
                    .into_iter()
                    .map(|h| h.join().expect("a reference thread panicked")),
            );
            all
        });
        speeds.iter().sum::<f64>() / speeds.len() as f64
    }

    /// The host speed at one end of a phase that cannot be sliced (a
    /// set-up step of seconds): the median of 30 samples back to back
    /// (≈ 60 ms), again 1.0 on the quiet reference box.
    pub fn burst_on(&self, threads: usize) -> f64 {
        let samples: Vec<f64> = (0..BURST_SAMPLES).map(|_| self.speed_on(threads)).collect();
        crate::stats::median(&samples) / NOMINAL_BURST_SPEED
    }
}

/// Geometric mean of the two kernels' `nominal / measured`.
pub fn speed_of((compute_ms, stream_ms): (f64, f64)) -> f64 {
    ((NOMINAL_COMPUTE_MS / compute_ms) * (NOMINAL_STREAM_MS / stream_ms)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_times_are_speed_one_and_slower_is_less() {
        assert!((speed_of((NOMINAL_COMPUTE_MS, NOMINAL_STREAM_MS)) - 1.0).abs() < 1e-12);
        // both kernels 25 % slower: speed 0.8
        let s = speed_of((NOMINAL_COMPUTE_MS * 1.25, NOMINAL_STREAM_MS * 1.25));
        assert!((s - 0.8).abs() < 1e-12);
        // one kernel twice as slow: the geometric mean, 1/sqrt(2)
        let s = speed_of((NOMINAL_COMPUTE_MS * 2.0, NOMINAL_STREAM_MS));
        assert!((s - 0.5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn kernels_do_their_work() {
        assert_eq!(sum_squares(&[2.0; 32]), 128.0);
        let host = HostRef::default();
        let (compute, stream) = host.kernel_ms();
        assert!(compute > 0.0 && stream > 0.0);
        assert!(host.speed() > 0.0 && host.speed_on(2) > 0.0);
    }
}
