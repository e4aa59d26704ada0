//! The workspace's concurrency protocols, as types.
//!
//! This is the only library module that may name `std::sync::atomic`:
//! `clippy.toml` lists the atomic types under `disallowed-types`, and
//! this module's `#[expect]` is the one exemption. Every atomic elsewhere is one
//! of the five types below, and each method hard-codes the `Ordering`
//! its protocol needs — a call site cannot choose one, so it cannot
//! choose a wrong one. Need an atomic? Pick a type. Need a protocol
//! that is not here? Add it to this file together with a test that
//! pins what it publishes.
//!
//! | type | for | operations |
//! |---|---|---|
//! | [`RelaxedU64`] | statistics, id allocators, the virtual clock | everything `Relaxed` |
//! | [`Flag`] | one-way state publication (shutdown, resolved kernel) | `set` = `Release`, `get` = `Acquire` |
//! | [`RingHead`] | overwrite-oldest ring cursor | `claim` = `fetch_add(Release)`, `get` = `Acquire` |
//! | [`RefCount`] | outstanding-work counts that gate a wake-up or a free | `dec` = `AcqRel`, `get` = `Acquire` |
//! | [`SeqPair`] | a `(u64, u64)` pair read untorn without a lock | loads `Acquire`, stores `Release`, claim CAS `AcqRel` |
//!
//! Why each protocol needs these orderings is argued on its type.

use std::sync::atomic::{
    AtomicU64, AtomicU8, AtomicUsize,
    Ordering::{AcqRel, Acquire, Relaxed, Release},
};

/// A `u64` nobody infers the state of other memory from, so every
/// access is `Relaxed`: a reader may see a value late, never a torn one.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct RelaxedU64(AtomicU64);

impl RelaxedU64 {
    /// A cell holding `v`.
    #[inline]
    pub const fn new(v: u64) -> Self {
        RelaxedU64(AtomicU64::new(v))
    }

    /// Adds `n` (wrapping) and returns the previous value.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Relaxed)
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Overwrites the value.
    #[inline]
    pub(crate) fn set(&self, v: u64) {
        self.0.store(v, Relaxed)
    }

    /// Lowers the value to `v` if `v` is smaller.
    #[inline]
    pub(crate) fn min(&self, v: u64) {
        self.0.fetch_min(v, Relaxed);
    }

    /// Raises the value to `v` if `v` is larger.
    #[inline]
    pub(crate) fn max(&self, v: u64) {
        self.0.fetch_max(v, Relaxed);
    }
}

/// A small state byte that publishes the writes made before it was
/// set: `set` must `Release` them, and a reader that observes the state
/// must `Acquire` to see them.
#[derive(Debug)]
#[repr(transparent)]
pub struct Flag(AtomicU8);

impl Flag {
    /// A flag in `state` (`0` is "not raised").
    #[inline]
    pub const fn new(state: u8) -> Self {
        Flag(AtomicU8::new(state))
    }

    /// Publishes `state`.
    #[inline]
    pub fn set(&self, state: u8) {
        self.0.store(state, Release)
    }

    /// Current state.
    #[inline]
    pub fn get(&self) -> u8 {
        self.0.load(Acquire)
    }

    /// `set(1)` — for two-state flags.
    #[inline]
    pub fn raise(&self) {
        self.set(1)
    }

    /// True once any non-zero state was published.
    #[inline]
    pub fn is_raised(&self) -> bool {
        self.get() != 0
    }
}

/// Cursor of an overwrite-oldest ring. Its value *is* the claim that
/// the slots below it were written, so `claim` advances it with a
/// `Release` `fetch_add` and scanners `get` it with `Acquire` before
/// touching slots.
#[derive(Debug)]
#[repr(transparent)]
pub struct RingHead(AtomicU64);

impl RingHead {
    /// A head at ticket `v`.
    #[inline]
    pub const fn new(v: u64) -> Self {
        RingHead(AtomicU64::new(v))
    }

    /// Advances the head by one and returns the claimed ticket.
    #[inline]
    pub(crate) fn claim(&self) -> u64 {
        self.0.fetch_add(1, Release)
    }

    /// Current head.
    #[inline]
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Acquire)
    }
}

/// Count of outstanding work items. The decrement carries `Release`
/// so the thread that observes zero (`Acquire`) also observes the work
/// every earlier decrementer completed; it is `AcqRel`, so the last
/// decrementer observes that work too.
#[derive(Debug)]
#[repr(transparent)]
pub struct RefCount(AtomicUsize);

impl RefCount {
    /// A count of `n`.
    #[inline]
    pub const fn new(n: usize) -> Self {
        RefCount(AtomicUsize::new(n))
    }

    /// Subtracts one and returns the previous count (`1` means the
    /// caller released the last item).
    #[inline]
    pub fn dec(&self) -> usize {
        self.0.fetch_sub(1, AcqRel)
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> usize {
        self.0.load(Acquire)
    }
}

/// A lock-free seqlock over a `(u64, u64)` pair. Writers skip on
/// contention (they never block); readers retry on a torn read.
///
/// Every load is `Acquire`, every store and the claiming CAS are
/// `Release`-or-stronger. That makes the odd/even check sound: if a
/// reader's data load synchronizes-with a writer's `Release` data
/// store, that writer's odd version CAS (program-order-before the data
/// store) is visible too, so the reader's `Acquire` recheck sees the
/// odd or advanced version and retries — with all-`Relaxed` accesses
/// the recheck could validate a torn pair.
#[derive(Debug, Default)]
pub struct SeqPair {
    version: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl SeqPair {
    /// A never-written pair.
    #[inline]
    pub const fn new() -> Self {
        SeqPair { version: AtomicU64::new(0), a: AtomicU64::new(0), b: AtomicU64::new(0) }
    }

    /// Best-effort publish; a concurrent writer wins and this write is
    /// silently skipped.
    #[inline]
    pub(crate) fn offer(&self, a: u64, b: u64) {
        let v = self.version.load(Acquire);
        if v % 2 == 1 {
            return; // writer in progress
        }
        if self.version.compare_exchange(v, v + 1, AcqRel, Relaxed).is_err() {
            return;
        }
        self.a.store(a, Release);
        self.b.store(b, Release);
        self.version.store(v + 2, Release);
    }

    /// The first element alone (it may belong to a write in progress).
    #[inline]
    pub(crate) fn first(&self) -> u64 {
        self.a.load(Acquire)
    }

    /// The pair of one single write, or `None` when nothing was ever
    /// written or four attempts in a row raced a writer.
    #[inline]
    pub(crate) fn read(&self) -> Option<(u64, u64)> {
        for _ in 0..4 {
            let v1 = self.version.load(Acquire);
            if v1 == 0 {
                return None;
            }
            if v1 % 2 == 1 {
                continue;
            }
            let a = self.a.load(Acquire);
            let b = self.b.load(Acquire);
            if self.version.load(Acquire) == v1 {
                return Some((a, b));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn relaxed_totals_hold_under_four_writers() {
        let (sum, lo, hi) = (RelaxedU64::new(0), RelaxedU64::new(u64::MAX), RelaxedU64::new(0));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (sum, lo, hi) = (&sum, &lo, &hi);
                scope.spawn(move || {
                    for i in 1..=10_000u64 {
                        let v = t * 10_000 + i;
                        sum.add(v);
                        lo.min(v);
                        hi.max(v);
                    }
                });
            }
        });
        assert_eq!(sum.get(), 40_000 * 40_001 / 2);
        assert_eq!((lo.get(), hi.get()), (1, 40_000));
    }

    /// Message passing: the payload is a relaxed cell written before
    /// each publication, so a reader that observes publication `n`
    /// must observe a payload of at least `n`.
    fn publishes_payload(publish: impl Fn(u64) + Sync, observe: impl Fn() -> u64 + Sync) {
        const ROUNDS: u64 = 200;
        let payload = RelaxedU64::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for n in 1..=ROUNDS {
                    payload.set(n);
                    publish(n);
                }
            });
            scope.spawn(|| loop {
                let seen = observe();
                assert!(payload.get() >= seen, "publication {seen} overtook its payload");
                if seen == ROUNDS {
                    break;
                }
            });
        });
    }

    #[test]
    fn flag_set_publishes_earlier_writes() {
        let flag = Flag::new(0);
        publishes_payload(|n| flag.set(n as u8), || u64::from(flag.get()));
        assert!(flag.is_raised());
    }

    #[test]
    fn ring_head_claim_publishes_earlier_writes() {
        let head = RingHead::new(0);
        publishes_payload(|n| assert_eq!(head.claim(), n - 1), || head.get());
    }

    #[test]
    fn refcount_last_decrement_sees_all_writes() {
        for _ in 0..200 {
            let count = RefCount::new(4);
            let cells: Vec<RelaxedU64> = (0..4).map(|_| RelaxedU64::new(0)).collect();
            let start = Barrier::new(4);
            std::thread::scope(|scope| {
                for t in 0..4usize {
                    let (count, cells, start) = (&count, &cells, &start);
                    scope.spawn(move || {
                        start.wait();
                        cells[t].set(t as u64 + 1);
                        if count.dec() == 1 {
                            let seen: Vec<u64> = cells.iter().map(RelaxedU64::get).collect();
                            assert_eq!(seen, [1, 2, 3, 4], "last owner missed a write");
                        }
                    });
                }
            });
            assert_eq!(count.get(), 0);
        }
    }

    #[test]
    fn seq_pair_reads_are_never_torn() {
        // regression for the exemplar seqlock: writers publish pairs
        // with b == a + 1; a validated read must never mix two writes.
        // Under an all-Relaxed handshake the version recheck could
        // validate a torn read.
        let slot = SeqPair::new();
        assert_eq!(slot.read(), None);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let slot = &slot;
                scope.spawn(move || {
                    for i in 0..20_000u64 {
                        let a = t * 1_000_000 + i + 1;
                        slot.offer(a, a + 1);
                    }
                });
            }
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..50_000 {
                        if let Some((a, b)) = slot.read() {
                            assert_eq!(b, a + 1, "torn pair: a and b from different writes");
                        }
                    }
                });
            }
        });
        assert!(slot.first() > 0);
    }
}
