//! The admission gate: at most `workers` requests compute at once, at
//! most `queue_cap` wait for a slot, the rest are refused.
//!
//! Every request passes through the waiting count — even one that finds
//! a free slot — so the bound is on waiting work and exact under the
//! lock, and `queue_cap = 0` sheds everything. Order among waiting
//! connections is whatever the condvar wakes first.

use crate::server::lock;
use std::sync::{Condvar, Mutex, PoisonError};

#[derive(Default)]
struct Counts {
    running: usize,
    waiting: usize,
}

pub(crate) struct Gate {
    workers: usize,
    queue_cap: usize,
    counts: Mutex<Counts>,
    freed: Condvar,
}

/// One running slot; dropping it (also by unwinding) frees the slot and
/// wakes one waiter.
pub(crate) struct Permit<'a>(&'a Gate);

impl Gate {
    pub(crate) fn new(workers: usize, queue_cap: usize) -> Self {
        Gate {
            workers: workers.max(1),
            queue_cap,
            counts: Mutex::new(Counts::default()),
            freed: Condvar::new(),
        }
    }

    /// Blocks until a running slot is free; `None` when `queue_cap`
    /// requests are already waiting.
    pub(crate) fn enter(&self) -> Option<Permit<'_>> {
        let mut c = lock(&self.counts);
        if c.waiting >= self.queue_cap {
            return None;
        }
        c.waiting += 1;
        while c.running >= self.workers {
            c = self.freed.wait(c).unwrap_or_else(PoisonError::into_inner);
        }
        c.waiting -= 1;
        c.running += 1;
        Some(Permit(self))
    }

    /// Requests currently waiting for a slot.
    pub(crate) fn waiting(&self) -> usize {
        lock(&self.counts).waiting
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        lock(&self.0.counts).running -= 1;
        self.0.freed.notify_one();
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_types, reason = "the test tracks occupancy with raw atomics of its own")]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn bounds_hold_under_contention() {
        let gate = Gate::new(2, 3);
        let (inside, max_inside, max_waiting) =
            (AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0));
        let (admitted, shed) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let start = Barrier::new(12);
        std::thread::scope(|s| {
            for _ in 0..12 {
                s.spawn(|| {
                    start.wait();
                    let Some(_permit) = gate.enter() else {
                        shed.fetch_add(1, Ordering::SeqCst);
                        return;
                    };
                    admitted.fetch_add(1, Ordering::SeqCst);
                    let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                    max_inside.fetch_max(now, Ordering::SeqCst);
                    // hold the slot until every thread has reached the
                    // gate: it was shed, is waiting, or got in
                    loop {
                        let waiting = gate.waiting();
                        max_waiting.fetch_max(waiting, Ordering::SeqCst);
                        let settled =
                            shed.load(Ordering::SeqCst) + admitted.load(Ordering::SeqCst) + waiting;
                        if settled == 12 {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    inside.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(max_inside.load(Ordering::SeqCst) <= 2, "more than `workers` ran at once");
        assert!(max_waiting.load(Ordering::SeqCst) <= 3, "more than `queue_cap` waited");
        // the first two hold until all twelve arrived, so exactly three
        // more fit in the queue and the other seven are refused
        assert_eq!(admitted.load(Ordering::SeqCst), 5);
        assert_eq!(shed.load(Ordering::SeqCst), 7);
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn zero_capacity_sheds_even_when_idle() {
        let gate = Gate::new(4, 0);
        assert!(gate.enter().is_none());
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn panicking_holder_frees_its_slot() {
        let gate = Gate::new(1, 1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _permit = gate.enter().expect("idle gate admits");
            panic!("holder panicked");
        }));
        assert!(caught.is_err());
        // would block forever if the unwinding drop had leaked the slot
        assert!(gate.enter().is_some());
        assert_eq!(gate.waiting(), 0);
    }
}
