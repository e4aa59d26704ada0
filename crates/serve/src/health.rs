//! Serving health: every shard's circuit breaker and the whole-service
//! overload pin, as one value with one transition function,
//! [`Health::record`].
//!
//! Both machines are deliberately **request-indexed, not wall-clocked**:
//! transitions fire on the accept-order request index (the same key the
//! fault harness replays on), so a seeded chaos run produces the exact
//! same open/probe/close sequence at any pool width and on any machine —
//! the §8 determinism contract extended to failure handling.
//!
//! **Per-shard breaker.** `Closed → Open` after [`BREAKER_THRESHOLD`]
//! consecutive failed attempts on the shard (deadline miss, error, or
//! contained panic). `Open → Probing` once [`BREAKER_COOLDOWN`] requests
//! have passed since opening: the request that finds the cooldown over
//! is the one probe, and every other request skips the shard until the
//! probe's outcome is recorded. A good probe readmits the shard
//! (`→ Closed`), a failed one reopens it with a fresh cooldown. A skipped
//! shard makes the answer partial (`x-emblookup-shards: k/N`).
//!
//! **Overload pin.** When `/lookup` itself keeps missing deadlines
//! ([`OVERLOAD_THRESHOLD`] consecutive `504`s from the full pipeline), the
//! service pins traffic to the degradation ladder's string rung — a cheap
//! q-gram answer beats a timeout during sustained overload. Every
//! [`OVERLOAD_PROBE_INTERVAL`]-th request after pinning retries the full
//! pipeline; the first one to beat its deadline unpins.

use crate::server::{BREAKER_COOLDOWN, BREAKER_THRESHOLD, OVERLOAD_PROBE_INTERVAL, OVERLOAD_THRESHOLD};

/// Where one shard's breaker stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    /// Healthy: every request attempts the shard; `failures` of those
    /// attempts in a row have failed.
    Closed { failures: u32 },
    /// Ejected by request `since`: skipped until the cooldown elapses.
    Open { since: u64 },
    /// Cooldown elapsed: request `probe` alone attempts the shard.
    Probing { probe: u64 },
}

/// Where the overload pin stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pin {
    /// Every `/lookup` runs the full pipeline; `misses` of them in a row
    /// have exhausted their deadline.
    Off { misses: u32 },
    /// Pinned to the string rung by request `since`.
    On { since: u64 },
}

/// What a request reports to [`Health::record`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// The request's attempt on `shard` delivered (`ok`) or missed its
    /// slice of the deadline, errored, or panicked.
    Shard { shard: usize, ok: bool },
    /// A `/lookup` that ran the full pipeline beat its deadline (`hit`)
    /// or exhausted it.
    Lookup { hit: bool },
}

/// A breaker change reported by [`Health::record`], for the
/// `serve.breaker.*` counters. The pin's position is read through
/// [`Health::pinned`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Change {
    /// A shard was ejected: its failures reached the threshold, or its
    /// probe failed.
    Opened,
    /// A shard's probe delivered: the shard is back.
    Readmitted,
}

/// The serving tier's health: one breaker per shard, plus the pin.
#[derive(Debug)]
pub(crate) struct Health {
    shards: Vec<Breaker>,
    pin: Pin,
}

impl Health {
    /// Every shard closed, the pin off.
    pub(crate) fn new(num_shards: usize) -> Self {
        Health {
            shards: vec![Breaker::Closed { failures: 0 }; num_shards],
            pin: Pin::Off { misses: 0 },
        }
    }

    /// Should request `idx` answer from the string rung? `false` when
    /// unpinned, and for every [`OVERLOAD_PROBE_INTERVAL`]-th request
    /// after pinning: that one probes the full pipeline.
    pub(crate) fn pinned(&self, idx: u64) -> bool {
        match self.pin {
            Pin::Off { .. } => false,
            Pin::On { since } => {
                !idx.saturating_sub(since).is_multiple_of(OVERLOAD_PROBE_INTERVAL)
            }
        }
    }

    /// The shards request `idx` attempts, in shard order, and how many of
    /// them it probes. An open shard whose cooldown has elapsed starts
    /// probing here, with `idx` as its one probe.
    pub(crate) fn admit_shards(&mut self, idx: u64) -> (Vec<usize>, u64) {
        let mut attempted = Vec::with_capacity(self.shards.len());
        let mut probes = 0;
        for (shard, breaker) in self.shards.iter_mut().enumerate() {
            let admitted = match *breaker {
                Breaker::Closed { .. } => true,
                Breaker::Open { since } if idx.saturating_sub(since) >= BREAKER_COOLDOWN => {
                    *breaker = Breaker::Probing { probe: idx };
                    probes += 1;
                    true
                }
                Breaker::Open { .. } => false,
                Breaker::Probing { probe } => probe == idx,
            };
            if admitted {
                attempted.push(shard);
            }
        }
        (attempted, probes)
    }

    /// Shards not open (probing counts as live): `serve.shards.live`.
    pub(crate) fn live_shards(&self) -> usize {
        self.shards
            .iter()
            .filter(|b| !matches!(b, Breaker::Open { .. }))
            .count()
    }

    /// The one transition: applies request `idx`'s `outcome` and returns
    /// the breaker change it caused, if any.
    pub(crate) fn record(&mut self, idx: u64, outcome: Outcome) -> Option<Change> {
        match outcome {
            Outcome::Shard { shard, ok } => {
                let breaker = &mut self.shards[shard];
                let (next, change) = match (*breaker, ok) {
                    (Breaker::Closed { .. }, true) => (Breaker::Closed { failures: 0 }, None),
                    (Breaker::Closed { failures }, false) if failures + 1 >= BREAKER_THRESHOLD => {
                        (Breaker::Open { since: idx }, Some(Change::Opened))
                    }
                    (Breaker::Closed { failures }, false) => {
                        (Breaker::Closed { failures: failures + 1 }, None)
                    }
                    (Breaker::Probing { probe }, true) if probe == idx => {
                        (Breaker::Closed { failures: 0 }, Some(Change::Readmitted))
                    }
                    (Breaker::Probing { probe }, false) if probe == idx => {
                        (Breaker::Open { since: idx }, Some(Change::Opened))
                    }
                    // An attempt admitted before the shard opened, recorded
                    // late: only the probe speaks for an ejected shard.
                    (Breaker::Open { .. } | Breaker::Probing { .. }, _) => (*breaker, None),
                };
                *breaker = next;
                change
            }
            Outcome::Lookup { hit } => {
                self.pin = match (self.pin, hit) {
                    (_, true) => Pin::Off { misses: 0 },
                    (Pin::Off { misses }, false) if misses + 1 >= OVERLOAD_THRESHOLD => {
                        Pin::On { since: idx }
                    }
                    (Pin::Off { misses }, false) => Pin::Off { misses: misses + 1 },
                    (Pin::On { since }, false) => Pin::On { since },
                };
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One call on [`Health`] and what it returned.
    #[derive(Debug, Clone, PartialEq)]
    enum Step {
        /// `admit_shards`: the shards attempted, and how many as probes.
        Admit(Vec<usize>, u64),
        /// `record` of this outcome, and the change it reported.
        Record(Outcome, Option<Change>),
        /// `pinned`.
        Pinned(bool),
    }

    fn shard(shard: usize, ok: bool) -> Outcome {
        Outcome::Shard { shard, ok }
    }

    fn lookup(hit: bool) -> Outcome {
        Outcome::Lookup { hit }
    }

    /// Makes each call of `walk` on a fresh two-shard [`Health`] and
    /// returns what it returned, in the shape the walk expects.
    fn replay(walk: &[(u64, Step, &str)]) -> Vec<Step> {
        let mut health = Health::new(2);
        walk.iter()
            .map(|(idx, step, _)| match step {
                Step::Admit(..) => {
                    let (attempted, probes) = health.admit_shards(*idx);
                    Step::Admit(attempted, probes)
                }
                Step::Record(outcome, _) => Step::Record(*outcome, health.record(*idx, *outcome)),
                Step::Pinned(_) => Step::Pinned(health.pinned(*idx)),
            })
            .collect()
    }

    #[test]
    fn every_transition_fires_at_the_constants() {
        use Step::{Admit, Pinned, Record};
        assert_eq!(
            (BREAKER_THRESHOLD, BREAKER_COOLDOWN, OVERLOAD_THRESHOLD, OVERLOAD_PROBE_INTERVAL),
            (3, 8, 3, 4),
            "the walk below is laid out at these"
        );
        let walk = [
            // Shard 0's breaker; shard 1 stays healthy throughout.
            (0, Admit(vec![0, 1], 0), "a closed breaker admits its shard"),
            (0, Record(shard(0, false), None), "one failure is under the threshold"),
            (1, Record(shard(0, true), None), "a success resets the failure streak"),
            (2, Record(shard(0, false), None), "streak 1"),
            (3, Record(shard(0, false), None), "streak 2: without the reset this opened"),
            (4, Record(shard(0, false), Some(Change::Opened)), "the breaker opens at the threshold"),
            (5, Admit(vec![1], 0), "an open shard is skipped"),
            (3, Record(shard(0, true), None), "a late attempt does not close an open breaker"),
            (11, Admit(vec![1], 0), "cooldown not yet elapsed"),
            (12, Admit(vec![0, 1], 1), "it probes after the cooldown"),
            (13, Admit(vec![1], 0), "one probe: others skip the shard meanwhile"),
            (12, Record(shard(0, false), Some(Change::Opened)), "a failed probe reopens it"),
            (19, Admit(vec![1], 0), "the cooldown restarts from the failed probe"),
            (20, Admit(vec![0, 1], 1), "the next probe"),
            (20, Record(shard(0, true), Some(Change::Readmitted)), "a good probe readmits the shard"),
            (21, Admit(vec![0, 1], 0), "a readmitted shard is closed again"),
            // The overload pin; a lookup outcome reports no breaker change.
            (30, Pinned(false), "unpinned"),
            (30, Record(lookup(true), None), "a hit while unpinned"),
            (31, Record(lookup(false), None), "miss 1"),
            (32, Record(lookup(true), None), "a hit resets the miss streak"),
            (33, Record(lookup(false), None), "miss 1"),
            (34, Record(lookup(false), None), "miss 2"),
            (35, Pinned(false), "two misses in a row do not pin"),
            (35, Record(lookup(false), None), "miss 3"),
            (36, Pinned(true), "the pin engages at the threshold"),
            (38, Pinned(true), "pinned requests answer from the string rung"),
            (39, Pinned(false), "a pinned service probes every interval"),
            (39, Record(lookup(false), None), "the probe misses"),
            (40, Pinned(true), "a missed probe keeps the pin"),
            (43, Pinned(false), "the next probe"),
            (43, Record(lookup(true), None), "the probe hits"),
            (44, Pinned(false), "a hit unpins"),
            (44, Admit(vec![0, 1], 0), "the pin never touched the breakers"),
        ];
        let seen = replay(&walk);
        for ((idx, want, why), got) in walk.iter().zip(&seen) {
            assert_eq!(got, want, "request {idx}: {why}");
        }
        assert_eq!(replay(&walk), seen, "the same stream always produces the same transitions");
    }

    /// Requests 4–6 fail the shard, which opens at 6; request 14 ends
    /// the cooldown. A request that arrives while 14 is in flight must
    /// not attempt the shard too, nor count as a second probe.
    #[test]
    fn a_probing_shard_admits_only_its_probe() {
        let mut health = Health::new(1);
        for idx in 4..=6 {
            assert_eq!(health.admit_shards(idx), (vec![0], 0));
            health.record(idx, shard(0, false));
        }
        assert_eq!(health.live_shards(), 0);
        assert_eq!(health.admit_shards(14), (vec![0], 1), "request 14 is the probe");
        assert_eq!(health.live_shards(), 1, "a probing shard counts as live");
        assert_eq!(health.admit_shards(15), (vec![], 0), "request 15 skips it while 14 probes");
        assert_eq!(health.record(14, shard(0, true)), Some(Change::Readmitted));
        assert_eq!(health.admit_shards(16), (vec![0], 0), "readmitted: request 16 attempts it");
    }
}
