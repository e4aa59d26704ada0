//! Deterministic fault injection and deadline accounting.
//!
//! Faults exist to prove the serving layer degrades instead of dying:
//! the harness can stretch any pipeline stage, make the ANN backend
//! fail or return poisoned scores, or panic inside the search — and do
//! it **reproducibly**. Scripted plans replay a fixed fault sequence;
//! random plans derive a per-request generator from `seed ^ request
//! index`, so run N of a test sees bit-for-bit the run N-1 saw.
//!
//! Injected latency can run in *virtual time*: instead of sleeping, the
//! fault advances the request's deadline clock by the injected
//! amount. Tests stay fast, and — because virtual milliseconds dwarf
//! the microseconds of real work — degradation decisions become
//! independent of machine speed and pool width.
//!
//! Faults are only ever constructed through [`crate::ServeConfig`];
//! the default config carries `None`, so release binaries cannot
//! trip over a stray fault plan.

use emblookup_obs::sync::RelaxedU64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// A pipeline stage at which faults apply and deadlines are checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// Queueing / admission, before any work.
    Admit,
    /// Query embedding (CNN + fastText forward pass).
    Encode,
    /// Candidate search (ANN / flat / q-gram).
    Search,
}

impl Stage {
    /// Stable lower-case name used in `504` response metadata.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Stage::Admit => "admit",
            Stage::Encode => "encode",
            Stage::Search => "search",
        }
    }
}

/// The faults applied to one request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageFaults {
    /// Latency injected before admission checks, in milliseconds.
    pub admit_latency_ms: u64,
    /// Latency injected before the encode stage.
    pub encode_latency_ms: u64,
    /// Latency injected before the search stage.
    pub search_latency_ms: u64,
    /// The primary (PQ/ANN) backend reports an error for this request.
    pub backend_error: bool,
    /// The primary backend answers with poisoned (NaN) scores.
    pub poison: bool,
    /// The search stage panics mid-request (containment drill).
    pub panic_in_search: bool,
    /// The request is refused at the door (`429`) as if the queue were
    /// full — exercises the shed path without needing real overload.
    pub shed: bool,
    /// `(target, ms)`: inject `ms` of latency into shard
    /// `target % num_shards` during this request's scatter-gather (at
    /// one shard every target names it).
    pub shard_latency: Option<(u32, u64)>,
    /// Panic inside shard `target % num_shards` during scatter-gather
    /// (per-shard containment drill).
    pub shard_panic: Option<u32>,
}

/// How faults are generated across requests.
#[derive(Debug, Clone)]
pub enum FaultConfig {
    /// Replay `plan[i % plan.len()]` for request `i`. An empty plan
    /// injects nothing.
    Scripted {
        /// Per-request fault schedule, cycled.
        plan: Vec<StageFaults>,
        /// Advance the deadline clock instead of sleeping.
        virtual_time: bool,
    },
    /// Derive request `i`'s faults from an [`StdRng`] seeded with
    /// `seed ^ i`-derived material. Same seed, same faults, always.
    Random {
        /// Base seed for the per-request generators.
        seed: u64,
        /// Probability a stage gets injected latency.
        latency_prob: f64,
        /// Upper bound (exclusive) on injected latency per stage.
        max_latency_ms: u64,
        /// Probability the primary backend errors.
        backend_error_prob: f64,
        /// Probability the primary backend poisons its scores.
        poison_prob: f64,
        /// Probability the search stage panics.
        panic_prob: f64,
        /// Probability the request is shed at admission.
        shed_prob: f64,
        /// Probability one shard misbehaves during scatter-gather
        /// (split evenly between a stall and a panic; the target shard
        /// is drawn uniformly).
        shard_fault_prob: f64,
        /// Advance the deadline clock instead of sleeping.
        virtual_time: bool,
    },
}

/// Resolves [`FaultConfig`] into per-request [`StageFaults`].
#[derive(Debug, Clone)]
pub(crate) struct FaultLayer {
    config: FaultConfig,
}

impl FaultLayer {
    /// Wraps a fault configuration.
    pub(crate) fn new(config: FaultConfig) -> Self {
        FaultLayer { config }
    }

    /// Whether injected latency should advance virtual time.
    pub(crate) fn virtual_time(&self) -> bool {
        match &self.config {
            FaultConfig::Scripted { virtual_time, .. }
            | FaultConfig::Random { virtual_time, .. } => *virtual_time,
        }
    }

    /// The faults for request number `index` (assigned by accept order).
    pub(crate) fn for_request(&self, index: u64) -> StageFaults {
        match &self.config {
            FaultConfig::Scripted { plan, .. } => {
                if plan.is_empty() {
                    StageFaults::default()
                } else {
                    plan[(index % plan.len() as u64) as usize]
                }
            }
            FaultConfig::Random {
                seed,
                latency_prob,
                max_latency_ms,
                backend_error_prob,
                poison_prob,
                panic_prob,
                shed_prob,
                shard_fault_prob,
                ..
            } => {
                // Mix the index through a distinct odd constant so
                // consecutive requests land on unrelated streams even
                // for adjacent seeds.
                let mixed = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut rng = StdRng::seed_from_u64(mixed);
                let latency = |rng: &mut StdRng| {
                    if *max_latency_ms > 0 && rng.gen_bool(*latency_prob) {
                        rng.gen_range(0..*max_latency_ms)
                    } else {
                        0
                    }
                };
                let mut faults = StageFaults {
                    admit_latency_ms: latency(&mut rng),
                    encode_latency_ms: latency(&mut rng),
                    search_latency_ms: latency(&mut rng),
                    backend_error: rng.gen_bool(*backend_error_prob),
                    poison: rng.gen_bool(*poison_prob),
                    panic_in_search: rng.gen_bool(*panic_prob),
                    // Drawn last, and only when enabled: seeds chosen
                    // before the shed fault existed replay unchanged.
                    shed: *shed_prob > 0.0 && rng.gen_bool(*shed_prob),
                    shard_latency: None,
                    shard_panic: None,
                };
                // Shard faults are drawn after everything else and only
                // when enabled, for the same stream-stability reason.
                if *shard_fault_prob > 0.0 && rng.gen_bool(*shard_fault_prob) {
                    let target = rng.gen_range(0..4096u64) as u32;
                    if rng.gen_bool(0.5) {
                        faults.shard_panic = Some(target);
                    } else {
                        let ms = rng.gen_range(0..(*max_latency_ms).max(1));
                        faults.shard_latency = Some((target, ms));
                    }
                }
                faults
            }
        }
    }
}

/// Tracks one request's deadline budget in real plus virtual time.
///
/// Real time accrues from [`Instant::now`]; virtual time accrues only
/// through [`DeadlineClock::advance_ms`] when the clock was built with
/// `virtual_only`. Degradation decisions read
/// [`DeadlineClock::frac_remaining`], the fraction of budget still
/// unspent.
///
/// Virtual time lives in a shared `Arc<RelaxedU64>` of nanoseconds so
/// the same counter can drive a request's trace clock
/// ([`emblookup_obs::TraceClock::Virtual`]): injected latency then
/// shows up identically in deadline accounting and captured span
/// durations, bit-for-bit across pool widths.
#[derive(Debug)]
pub(crate) struct DeadlineClock {
    start: Instant,
    budget_ms: u64,
    /// Monotone accrual; nothing is published through it.
    virtual_ns: Arc<RelaxedU64>,
    virtual_only: bool,
}

impl DeadlineClock {
    /// Starts a clock with `budget_ms` of budget. With `virtual_only`,
    /// injected latency advances the clock instead of sleeping.
    pub(crate) fn new(budget_ms: u64, virtual_only: bool) -> Self {
        Self::with_virtual_ns(budget_ms, virtual_only, Arc::new(RelaxedU64::new(0)))
    }

    /// Like [`DeadlineClock::new`], but accruing virtual time into a
    /// caller-provided shared nanosecond counter.
    pub(crate) fn with_virtual_ns(budget_ms: u64, virtual_only: bool, virtual_ns: Arc<RelaxedU64>) -> Self {
        DeadlineClock {
            start: Instant::now(),
            budget_ms,
            virtual_ns,
            virtual_only,
        }
    }

    /// True when injected latency advances the clock instead of
    /// sleeping (the clock was built with `virtual_only`).
    pub(crate) fn is_virtual(&self) -> bool {
        self.virtual_only
    }

    /// Applies `ms` of injected latency: virtually (clock advance) or
    /// physically (sleep), per construction.
    pub(crate) fn advance_ms(&self, ms: u64) {
        if ms == 0 {
            return;
        }
        if self.virtual_only {
            self.virtual_ns.add(ms.saturating_mul(1_000_000));
        } else {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }

    /// Total budget in milliseconds.
    pub(crate) fn budget_ms(&self) -> u64 {
        self.budget_ms
    }

    /// Virtual milliseconds accrued so far.
    pub(crate) fn virtual_elapsed_ms(&self) -> u64 {
        self.virtual_ns.get() / 1_000_000
    }

    /// Budget left counting only deterministic inputs: in virtual mode
    /// this ignores real elapsed time, so the value is reproducible
    /// across runs and pool widths (span annotations use it). In real
    /// mode it equals [`DeadlineClock::remaining_ms`].
    pub(crate) fn deterministic_remaining_ms(&self) -> u64 {
        if self.virtual_only {
            self.budget_ms.saturating_sub(self.virtual_elapsed_ms())
        } else {
            self.remaining_ms()
        }
    }

    /// Elapsed real plus virtual milliseconds.
    pub(crate) fn elapsed_ms(&self) -> u64 {
        let real = self.start.elapsed().as_millis() as u64;
        real.saturating_add(self.virtual_elapsed_ms())
    }

    /// Milliseconds of budget left (saturating at zero).
    pub(crate) fn remaining_ms(&self) -> u64 {
        self.budget_ms.saturating_sub(self.elapsed_ms())
    }

    /// Fraction of budget remaining, in `[0, 1]`.
    pub(crate) fn frac_remaining(&self) -> f64 {
        if self.budget_ms == 0 {
            return 0.0;
        }
        self.remaining_ms() as f64 / self.budget_ms as f64
    }

    /// True once the budget is exhausted.
    pub(crate) fn expired(&self) -> bool {
        self.remaining_ms() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_plan_cycles() {
        let plan = vec![
            StageFaults { encode_latency_ms: 5, ..StageFaults::default() },
            StageFaults { backend_error: true, ..StageFaults::default() },
        ];
        let layer = FaultLayer::new(FaultConfig::Scripted { plan, virtual_time: true });
        assert_eq!(layer.for_request(0).encode_latency_ms, 5);
        assert!(layer.for_request(1).backend_error);
        assert_eq!(layer.for_request(2).encode_latency_ms, 5);
    }

    #[test]
    fn empty_scripted_plan_injects_nothing() {
        let layer = FaultLayer::new(FaultConfig::Scripted { plan: vec![], virtual_time: true });
        assert_eq!(layer.for_request(7), StageFaults::default());
    }

    #[test]
    fn random_faults_are_reproducible_and_seed_sensitive() {
        let make = |seed| {
            FaultLayer::new(FaultConfig::Random {
                seed,
                latency_prob: 0.5,
                max_latency_ms: 100,
                backend_error_prob: 0.2,
                poison_prob: 0.2,
                panic_prob: 0.1,
                shed_prob: 0.0,
                shard_fault_prob: 0.0,
                virtual_time: true,
            })
        };
        let a: Vec<_> = (0..64).map(|i| make(7).for_request(i)).collect();
        let b: Vec<_> = (0..64).map(|i| make(7).for_request(i)).collect();
        let c: Vec<_> = (0..64).map(|i| make(8).for_request(i)).collect();
        assert_eq!(a, b, "same seed must replay identically");
        assert_ne!(a, c, "different seeds should differ somewhere in 64 draws");
    }

    #[test]
    fn virtual_clock_advances_without_sleeping() {
        let clock = DeadlineClock::new(100, true);
        let wall = Instant::now();
        clock.advance_ms(60);
        assert!(wall.elapsed().as_millis() < 50, "virtual advance must not sleep");
        assert!(clock.elapsed_ms() >= 60);
        assert!(clock.remaining_ms() <= 40);
        assert!(!clock.expired());
        clock.advance_ms(60);
        assert!(clock.expired());
        assert!((clock.frac_remaining() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn real_clock_sleeps() {
        let clock = DeadlineClock::new(1000, false);
        let wall = Instant::now();
        clock.advance_ms(20);
        assert!(wall.elapsed().as_millis() >= 20, "real mode must actually wait");
    }

    #[test]
    fn shared_virtual_ns_drives_deterministic_remaining() {
        let ns = Arc::new(RelaxedU64::new(0));
        let clock = DeadlineClock::with_virtual_ns(100, true, Arc::clone(&ns));
        clock.advance_ms(30);
        assert_eq!(ns.get(), 30_000_000, "trace clock sees the advance");
        assert_eq!(clock.virtual_elapsed_ms(), 30);
        assert_eq!(clock.deterministic_remaining_ms(), 70);
        ns.add(80_000_000);
        assert_eq!(clock.deterministic_remaining_ms(), 0, "external advances count too");
        assert!(clock.expired());
    }

    #[test]
    fn shed_fault_draw_does_not_disturb_existing_streams() {
        let make = |shed_prob| {
            FaultLayer::new(FaultConfig::Random {
                seed: 11,
                latency_prob: 0.5,
                max_latency_ms: 100,
                backend_error_prob: 0.2,
                poison_prob: 0.2,
                panic_prob: 0.1,
                shed_prob,
                shard_fault_prob: 0.0,
                virtual_time: true,
            })
        };
        let without: Vec<_> = (0..64).map(|i| make(0.0).for_request(i)).collect();
        let with: Vec<_> = (0..64).map(|i| make(0.5).for_request(i)).collect();
        assert!(without.iter().all(|f| !f.shed), "prob 0 must never shed");
        assert!(with.iter().any(|f| f.shed), "prob 0.5 sheds somewhere in 64 draws");
        for (a, b) in without.iter().zip(&with) {
            assert_eq!(
                StageFaults { shed: false, ..*b },
                *a,
                "non-shed fields must replay identically with shed enabled"
            );
        }
    }

    #[test]
    fn shard_fault_draw_does_not_disturb_existing_streams() {
        let make = |shard_fault_prob| {
            FaultLayer::new(FaultConfig::Random {
                seed: 11,
                latency_prob: 0.5,
                max_latency_ms: 100,
                backend_error_prob: 0.2,
                poison_prob: 0.2,
                panic_prob: 0.1,
                shed_prob: 0.3,
                shard_fault_prob,
                virtual_time: true,
            })
        };
        let without: Vec<_> = (0..64).map(|i| make(0.0).for_request(i)).collect();
        let with: Vec<_> = (0..64).map(|i| make(0.5).for_request(i)).collect();
        assert!(
            without.iter().all(|f| f.shard_latency.is_none() && f.shard_panic.is_none()),
            "prob 0 must never inject shard faults"
        );
        assert!(with.iter().any(|f| f.shard_latency.is_some()), "prob 0.5 stalls a shard");
        assert!(with.iter().any(|f| f.shard_panic.is_some()), "prob 0.5 panics a shard");
        for (a, b) in without.iter().zip(&with) {
            assert_eq!(
                StageFaults { shard_latency: None, shard_panic: None, ..*b },
                *a,
                "non-shard fields must replay identically with shard faults enabled"
            );
        }
    }

    #[test]
    fn zero_budget_is_always_expired() {
        let clock = DeadlineClock::new(0, true);
        assert!(clock.expired());
        assert!((clock.frac_remaining()).abs() < f64::EPSILON);
    }
}
