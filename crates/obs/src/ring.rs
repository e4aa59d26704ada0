//! The always-on flight recorder: a fixed-size overwrite-oldest ring
//! of completed traces.
//!
//! Whole [`TraceData`] trees are inserted, never individual spans, so
//! everything the recorder holds is a *complete* tree — there is no
//! partially-evicted trace to confuse a reader. Writers claim a slot
//! with one `fetch_add` and then `try_lock` it: if a concurrent reader
//! or writer holds the slot, the trace is dropped rather than blocking
//! the request path; [`crate::TraceHub`] counts both outcomes into the
//! registry. Memory is bounded by
//! `capacity × Arc<TraceData>`.

use crate::sync::RingHead;
use crate::trace::TraceData;
use std::sync::{Arc, Mutex};

/// Fixed-capacity overwrite-oldest store of recent traces.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<Arc<TraceData>>>>,
    /// The claimed value orders slot writes for scanners.
    head: RingHead,
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` traces (min 1).
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: RingHead::new(0),
        }
    }

    /// Inserts a completed trace, overwriting the oldest slot. Lossy
    /// under contention: if the claimed slot is momentarily held, the
    /// trace is dropped instead of blocking. Returns whether the trace
    /// was stored.
    pub(crate) fn record(&self, trace: Arc<TraceData>) -> bool {
        // `recent` must see the slot writes made before any claim it
        // observes: `RingHead`'s Release/Acquire pairing
        let slot = (self.head.claim() as usize) % self.slots.len();
        match self.slots[slot].try_lock() {
            Ok(mut guard) => {
                *guard = Some(trace);
                true
            }
            Err(_) => false,
        }
    }

    /// All currently held traces, oldest slot first from the current
    /// head. Slots that are contended right now are skipped.
    pub fn recent(&self) -> Vec<Arc<TraceData>> {
        let n = self.slots.len();
        let head = self.head.get() as usize;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let slot = (head + i) % n;
            if let Ok(guard) = self.slots[slot].try_lock() {
                if let Some(t) = guard.as_ref() {
                    out.push(Arc::clone(t));
                }
            }
        }
        out
    }

    /// Finds a held trace by wire id.
    pub(crate) fn find(&self, id: u64) -> Option<Arc<TraceData>> {
        self.recent().into_iter().find(|t| t.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: u64) -> Arc<TraceData> {
        Arc::new(TraceData { id, spans: Vec::new() })
    }

    #[test]
    fn wraparound_keeps_the_newest_capacity_traces() {
        let ring = FlightRecorder::new(4);
        for id in 1..=10u64 {
            assert!(ring.record(trace(id)), "an uncontended slot always stores");
        }
        let mut held: Vec<u64> = ring.recent().iter().map(|t| t.id).collect();
        held.sort_unstable();
        assert_eq!(held, vec![7, 8, 9, 10], "oldest traces must be overwritten");
        assert!(ring.find(9).is_some());
        assert!(ring.find(3).is_none());
    }

    #[test]
    fn capacity_clamps_to_one() {
        let ring = FlightRecorder::new(0);
        assert!(ring.record(trace(1)));
        assert!(ring.record(trace(2)));
        assert_eq!(ring.recent().len(), 1);
        assert_eq!(ring.recent()[0].id, 2);
    }

    #[test]
    fn concurrent_writers_never_block_and_account_everything() {
        let ring = Arc::new(FlightRecorder::new(8));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    let mut counts = (0u64, 0u64);
                    for i in 0..100u64 {
                        if ring.record(trace(t * 1000 + i)) {
                            counts.0 += 1;
                        } else {
                            counts.1 += 1;
                        }
                    }
                    counts
                })
            })
            .collect();
        let (mut recorded, mut dropped) = (0, 0);
        for t in threads {
            let (r, d) = t.join().unwrap();
            recorded += r;
            dropped += d;
        }
        assert_eq!(recorded + dropped, 400);
        assert!(recorded > 0, "a contended ring still stores traces");
        assert!(ring.recent().len() <= 8);
    }
}
