//! In-tree, zero-dependency replacement for the subset of the `rand` 0.8
//! API used by this workspace, so that `cargo build` works with no
//! registry access.
//!
//! Implements `RngCore`/`Rng`/`SeedableRng`, `rngs::StdRng` (xoshiro256++
//! seeded through SplitMix64) and `seq::SliceRandom` (`choose`,
//! `shuffle`). Streams are deterministic per seed but are **not**
//! bit-compatible with the upstream crate — all seeds in this repo are
//! internal, so only self-consistency matters.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod rngs;
pub mod seq;

use std::ops::{Range, RangeInclusive};

/// Core entropy source: everything derives from `next_u64`.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits (high half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-facing sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A uniformly random value of a primitive type.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// A uniform sample from a half-open or inclusive range.
    ///
    /// # Panics
    /// Panics when the range is empty.
    fn gen_range<T, B: SampleRange<T>>(&mut self, range: B) -> T {
        range.sample_one(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    /// Panics when `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool p={p} out of [0,1]");
        unit_f64(self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministic construction of a generator from seed material.
pub trait SeedableRng: Sized {
    /// Expands a single `u64` into full generator state (via SplitMix64).
    fn seed_from_u64(state: u64) -> Self;
}

/// Types samplable uniformly over their whole domain (`rng.gen::<T>()`).
pub trait Standard: Sized {
    /// Draws one uniform value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_uint {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_uint!(u8, u16, u32, u64, usize);

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f32(rng.next_u64())
    }
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Primitive types uniformly samplable over an interval. The single
/// blanket [`SampleRange`] impl per range shape keeps integer-literal
/// type inference working (`rng.gen_range(1850..2020)` defaults to
/// `i32`), matching the upstream crate's trait layout.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform sample from `[lo, hi)`, or `[lo, hi]` when `inclusive`.
    fn sample_uniform<R: RngCore + ?Sized>(lo: Self, hi: Self, inclusive: bool, rng: &mut R)
        -> Self;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range on empty range");
        T::sample_uniform(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range on empty range");
        T::sample_uniform(lo, hi, true, rng)
    }
}

/// Maps 64 random bits to a uniform `f64` in `[0, 1)` (53-bit mantissa).
#[inline]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Maps 64 random bits to a uniform `f32` in `[0, 1)` (24-bit mantissa).
#[inline]
fn unit_f32(bits: u64) -> f32 {
    (bits >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
}

/// Uniform `u64` in `[0, span)`; `span == 0` means the full domain.
#[inline]
fn below(rng: &mut (impl RngCore + ?Sized), span: u64) -> u64 {
    if span == 0 {
        return rng.next_u64();
    }
    // Multiply-shift (Lemire) keeps the modulo bias negligible without a
    // rejection loop; all uses here are statistical, not cryptographic.
    (((rng.next_u64() as u128) * (span as u128)) >> 64) as u64
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self {
                // i128 arithmetic covers signed ranges; `span == 0` only
                // for the full-u64 inclusive domain, handled by `below`.
                let span =
                    (hi as i128 - lo as i128 + if inclusive { 1 } else { 0 }) as u64;
                (lo as i128 + below(rng, span) as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! uniform_float {
    ($t:ty, $unit:ident) => {
        impl SampleUniform for $t {
            fn sample_uniform<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                _inclusive: bool,
                rng: &mut R,
            ) -> Self {
                lo + $unit(rng.next_u64()) * (hi - lo)
            }
        }
    };
}
uniform_float!(f32, unit_f32);
uniform_float!(f64, unit_f64);

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    use super::RngCore;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..2000 {
            let v = rng.gen_range(3..17usize);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(-1.0..1.0f32);
            assert!((-1.0..1.0).contains(&f));
            let i = rng.gen_range(-5..=5i64);
            assert!((-5..=5).contains(&i));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.gen_range(0..4usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_extremes_and_balance() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0) || !rng.gen_bool(1.0)); // never panics
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4500..5500).contains(&heads), "biased coin: {heads}");
    }

    #[test]
    fn unit_floats_are_half_open() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let f: f64 = rng.gen_range(0.0..1.0);
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements left in place — shuffle broken");
    }

    #[test]
    fn choose_only_returns_members() {
        let mut rng = StdRng::seed_from_u64(11);
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(items.choose(&mut rng).unwrap()));
        }
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn works_through_unsized_bounds() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> usize {
            rng.gen_range(0..10usize)
        }
        let mut rng = StdRng::seed_from_u64(1);
        assert!(draw(&mut rng) < 10);
    }
}
