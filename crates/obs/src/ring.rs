//! The always-on flight recorder: a fixed-size overwrite-oldest ring
//! of completed traces.
//!
//! Whole [`TraceData`] trees are inserted, never individual spans, so
//! everything the recorder holds is a *complete* tree — there is no
//! partially-evicted trace to confuse a reader. Writers claim a slot
//! with one `fetch_add` and then `try_lock` it: if a concurrent reader
//! or writer holds the slot, the trace is dropped (and counted) rather
//! than blocking the request path. Memory is bounded by
//! `capacity × Arc<TraceData>`.

use crate::sync::{RelaxedU64, RingHead};
use crate::trace::TraceData;
use std::sync::{Arc, Mutex};

/// Fixed-capacity overwrite-oldest store of recent traces.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<Arc<TraceData>>>>,
    /// The claimed value orders slot writes for scanners.
    head: RingHead,
    recorded: RelaxedU64,
    dropped: RelaxedU64,
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` traces (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: RingHead::new(0),
            recorded: RelaxedU64::new(0),
            dropped: RelaxedU64::new(0),
        }
    }

    /// Inserts a completed trace, overwriting the oldest slot. Lossy
    /// under contention: if the claimed slot is momentarily held, the
    /// trace is dropped and counted instead of blocking. Returns
    /// whether the trace was stored.
    pub fn record(&self, trace: Arc<TraceData>) -> bool {
        // `recent` must see the slot writes made before any claim it
        // observes: `RingHead`'s Release/Acquire pairing
        let slot = (self.head.claim() as usize) % self.slots.len();
        match self.slots[slot].try_lock() {
            Ok(mut guard) => {
                *guard = Some(trace);
                self.recorded.add(1);
                true
            }
            Err(_) => {
                self.dropped.add(1);
                false
            }
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
    pub fn find(&self, id: u64) -> Option<Arc<TraceData>> {
        self.recent().into_iter().find(|t| t.id == id)
    }

    /// The fixed slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total traces successfully recorded since construction.
    pub fn recorded(&self) -> u64 {
        self.recorded.get()
    }

    /// Total traces dropped to slot contention since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
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
            ring.record(trace(id));
        }
        let mut held: Vec<u64> = ring.recent().iter().map(|t| t.id).collect();
        held.sort_unstable();
        assert_eq!(held, vec![7, 8, 9, 10], "oldest traces must be overwritten");
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 0);
        assert!(ring.find(9).is_some());
        assert!(ring.find(3).is_none());
    }

    #[test]
    fn capacity_clamps_to_one() {
        let ring = FlightRecorder::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.record(trace(1));
        ring.record(trace(2));
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
                    for i in 0..100u64 {
                        ring.record(trace(t * 1000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.recorded() + ring.dropped(), 400);
        assert!(ring.recent().len() <= 8);
    }
}
