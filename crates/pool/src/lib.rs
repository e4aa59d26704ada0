//! # emblookup-pool
//!
//! A persistent fork-join compute pool built on std primitives only —
//! the shared parallel substrate behind bulk embedding, batched ANN
//! search, k-means assignment and minibatch training.
//!
//! The workers live for the process (FAISS-style), so a batched call
//! pays no thread start-up. Every queued chunk of every job sits in one
//! queue behind one lock, with one condvar beside it:
//!
//! * the condvar is notified under the queue lock on a push, on a job's
//!   last chunk and on shutdown, so no wake-up can be lost and no wait
//!   needs a timeout;
//! * workers take the **newest** task;
//! * the **caller participates**: while waiting for its job it runs that
//!   job's queued chunks, and **only that job's**. Every waiter can drain
//!   its own job, so nested [`Pool::parallel_map`] calls cannot deadlock,
//!   even on a single worker; a waiter that ran other jobs' chunks would
//!   return only when the longest of them ended;
//! * task closures borrow from the caller's stack. This is safe because
//!   the submitting call does not return until every chunk of its job
//!   has completed (the job counts outstanding chunks).
//!
//! Sizing is resolved once per process by [`default_threads`]
//! (`EMBLOOKUP_THREADS` override, else `available_parallelism() - 1`,
//! min 1) and shared through the lazily-initialized [`Pool::global`].
//! Tests that need explicit widths construct their own
//! [`Pool::with_threads`].
//!
//! Panics inside tasks are contained: a worker catches them,
//! and the `parallel_map*` calls rethrow the message as a panic on the
//! calling thread while [`Pool::scatter`] / [`Pool::scatter_grained`]
//! report it per index as a [`TaskPanic`] — a poisoned job never takes
//! a worker down.
//!
//! Fork-join is the only mode: every task is one chunk of a job whose
//! submitter is waiting (and helping) inside the call that created it.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use emblookup_obs::names;
use emblookup_obs::sync::{Flag, RefCount};
use emblookup_obs::{Counter, Gauge};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Locks a mutex, ignoring poison: pool state stays consistent because
/// every critical section is a plain field update and task panics are
/// already contained by `catch_unwind` before completion bookkeeping.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // The pool's bounded critical sections are its documented design (DESIGN.md §7)
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A task raised a panic; carries the payload's message when extractable.
#[derive(Debug, Clone)]
pub struct TaskPanic {
    /// Human-readable panic message (`"task panicked"` when the payload
    /// was not a string).
    pub message: String,
}

impl TaskPanic {
    fn from_payload(payload: &(dyn Any + Send)) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "task panicked".to_owned()
        };
        TaskPanic { message }
    }

    fn resume(self) -> ! {
        panic::resume_unwind(Box::new(self.message))
    }
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// One outstanding fork-join invocation: a lifetime- and
/// type-erased chunk runner plus completion bookkeeping. The raw pointer
/// stays valid because the submitting call blocks (running the job's
/// queued chunks) until `pending` reaches zero, and only then lets the
/// pointee drop.
struct JobCore {
    data: *const (),
    call: unsafe fn(*const (), usize, usize),
    /// Chunks outstanding; the submitter returns, freeing `data`, once
    /// it reads zero under the queue lock.
    pending: RefCount,
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `data` points at a `Sync` closure owned by the submitting
// frame, which outlives every task of the job (see struct docs).
#[expect(unsafe_code, reason = "type-erased job shared with the workers")]
unsafe impl Send for JobCore {}
// SAFETY: as for `Send`: the closure behind `data` is `Sync`.
#[expect(unsafe_code, reason = "type-erased job shared with the workers")]
unsafe impl Sync for JobCore {}

#[expect(unsafe_code, reason = "calls the trampoline paired with `data`")]
impl JobCore {
    /// Runs chunk `lo..hi` of the erased closure.
    fn run_chunk(&self, lo: usize, hi: usize) {
        // SAFETY: `call` is the trampoline `job_for` paired with `data`,
        // and the submitting frame keeps the pointee alive until
        // `pending` reaches zero, which is after this chunk.
        unsafe { (self.call)(self.data, lo, hi) }
    }
}

/// Monomorphized trampoline re-typing `data` back to the concrete
/// closure; pairing it with `data` in [`job_for`] is what keeps the
/// erasure sound (no dyn fat pointers involved).
///
/// # Safety
/// `data` must point at a live `F`.
#[expect(unsafe_code, reason = "re-types the erased closure pointer")]
unsafe fn call_chunk<F: Fn(usize, usize) + Sync>(data: *const (), lo: usize, hi: usize) {
    // SAFETY: the caller guarantees `data` points at a live `F`.
    unsafe { (*(data as *const F))(lo, hi) }
}

/// Output buffer of a parallel map, written through disjoint indices
/// from several chunks at once.
struct SlotPtr<U>(*mut Option<U>);
// SAFETY: the pointer is only written through `write`, whose contract
// gives each index to one writer; `U: Send` lets values cross threads.
#[expect(unsafe_code, reason = "disjoint-slot writes from several chunks")]
unsafe impl<U: Send> Sync for SlotPtr<U> {}
// SAFETY: as for `Sync`: `U: Send`, and each slot has one writer.
#[expect(unsafe_code, reason = "disjoint-slot writes from several chunks")]
unsafe impl<U: Send> Send for SlotPtr<U> {}
#[expect(unsafe_code, reason = "disjoint-slot writes from several chunks")]
impl<U> SlotPtr<U> {
    /// # Safety
    /// Each index must be written at most once while the backing
    /// buffer is alive and no other reference observes slot `i`.
    unsafe fn write(&self, i: usize, v: U) {
        // SAFETY: the caller gives slot `i` one writer while the buffer lives.
        unsafe { *self.0.add(i) = Some(v) }
    }
}

/// Erases `runner` into a [`JobCore`] expecting `pending` chunks.
fn job_for<F: Fn(usize, usize) + Sync>(runner: &F, pending: usize) -> Arc<JobCore> {
    Arc::new(JobCore {
        data: runner as *const F as *const (),
        call: call_chunk::<F>,
        pending: RefCount::new(pending),
        panic_payload: Mutex::new(None),
    })
}

/// A unit of executable work: the half-open index range `lo..hi` of one
/// chunked job.
struct Task {
    job: Arc<JobCore>,
    lo: usize,
    hi: usize,
}

struct Shared {
    /// Queued chunks of every outstanding job, oldest first.
    queue: Mutex<VecDeque<Task>>,
    /// Notified under `queue` on a push, on a job's last chunk and on
    /// shutdown: idle workers wait here for a task, submitters for
    /// their job.
    wake: Condvar,
    /// One-way shutdown publication to workers.
    shutdown: Flag,
    tasks_total: Arc<Counter>,
    queue_depth: Arc<Gauge>,
}

impl Shared {
    /// Runs one task under `catch_unwind`: a panic records the first
    /// payload on its job. True when the task was its job's last chunk.
    fn run_task(&self, task: Task) -> bool {
        self.tasks_total.inc();
        let Task { job, lo, hi } = task;
        let result = panic::catch_unwind(AssertUnwindSafe(|| job.run_chunk(lo, hi)));
        if let Err(payload) = result {
            let mut slot = lock(&job.panic_payload);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        job.pending.dec() == 1
    }
}

fn worker_loop(shared: &Shared) {
    let mut queue = lock(&shared.queue);
    loop {
        if let Some(task) = queue.pop_back() {
            shared.queue_depth.set(queue.len() as f64);
            drop(queue);
            let finished = shared.run_task(task);
            queue = lock(&shared.queue);
            if finished {
                // the job's submitter may be waiting on `wake`
                shared.wake.notify_all();
            }
        } else if shared.shutdown.is_raised() {
            return;
        } else {
            queue = shared.wake.wait(queue).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Persistent fork-join pool; see the crate docs for the design.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Builds a pool with `threads` total parallelism **including the
    /// submitting thread**: `threads - 1` workers are spawned, and the
    /// caller of [`Pool::parallel_map`] works alongside them.
    /// `with_threads(1)` spawns no workers and executes everything inline
    /// on the caller — the deterministic serial configuration.
    pub fn with_threads(threads: usize) -> Self {
        let workers = threads.max(1) - 1;
        let reg = emblookup_obs::global();
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            shutdown: Flag::new(0),
            tasks_total: reg.counter(names::POOL_TASKS),
            queue_depth: reg.gauge(names::POOL_QUEUE_DEPTH),
        });
        let handles = (0..workers)
            .filter_map(|i| {
                let shared = Arc::clone(&shared);
                // a failed spawn only narrows parallelism: every waiter
                // still drains its own job
                std::thread::Builder::new()
                    // Once per worker at pool construction, never per task
                    .name(format!("emblookup-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .ok()
            })
            .collect();
        Pool { shared, workers: handles }
    }

    /// The process-wide pool, created on first use with
    /// [`default_threads`] parallelism.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::with_threads(default_threads()))
    }

    /// Total parallelism of this pool (workers + the submitting thread).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Maps `f` over `0..n` into a `Vec` in index order, computing the
    /// entries across the pool in chunks of at least `grain` indices
    /// (every chunk runs to completion or unwinds before this returns).
    /// Task panics are rethrown on the caller.
    pub fn parallel_map<U, F>(&self, n: usize, grain: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        match self.try_parallel_map(n, grain, f) {
            Ok(v) => v,
            Err(e) => e.resume(),
        }
    }

    /// [`Pool::parallel_map`] with a task panic surfaced as an error.
    fn try_parallel_map<U, F>(&self, n: usize, grain: usize, f: F) -> Result<Vec<U>, TaskPanic>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        self.try_parallel_map_with(n, grain, || (), |(), i| f(i))
    }

    /// Fans `f` out over `0..n` with **per-index panic containment**:
    /// unlike [`Pool::parallel_map`], where one panicking index fails the
    /// whole job, each index's outcome is reported independently as
    /// `Ok(value)` or `Err(TaskPanic)` in index order. This is the
    /// scatter-gather primitive for sharded serving, where one
    /// misbehaving shard must cost only its own slot of the response,
    /// never its siblings'.
    ///
    /// `grain` is the least number of indices worth a pool task (the
    /// caller knows what one index costs; a task costs a worker wake-up
    /// and a completion wake-up). When `n` is within one grain there is
    /// nothing to hand out: every index runs on the calling thread, in
    /// index order, with no queue traffic, wake-up or park.
    pub fn scatter_grained<U, F>(&self, n: usize, grain: usize, f: F) -> Vec<Result<U, TaskPanic>>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        match self.try_parallel_map(n, grain, |i| {
            panic::catch_unwind(AssertUnwindSafe(|| f(i)))
                .map_err(|payload| TaskPanic::from_payload(payload.as_ref()))
        }) {
            Ok(v) => v,
            // Unreachable in practice: every index's panic is already
            // contained above, so the outer job cannot fail.
            Err(e) => e.resume(),
        }
    }

    /// [`Pool::scatter_grained`] at grain 1: one task per index.
    pub fn scatter<U, F>(&self, n: usize, f: F) -> Vec<Result<U, TaskPanic>>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        self.scatter_grained(n, 1, f)
    }

    /// Like [`Pool::parallel_map`] with per-chunk scratch state: `init`
    /// builds one `S` per executed chunk and `f(&mut scratch, i)` reuses
    /// it across that chunk's indices — the pattern for amortizing a
    /// work buffer (e.g. an ADC distance table) over a block of queries
    /// without allocating per element. Task panics are rethrown.
    pub fn parallel_map_with<S, U, I, F>(&self, n: usize, grain: usize, init: I, f: F) -> Vec<U>
    where
        U: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> U + Sync,
    {
        match self.try_parallel_map_with(n, grain, init, f) {
            Ok(v) => v,
            Err(e) => e.resume(),
        }
    }

    /// [`Pool::parallel_map_with`] with a task panic surfaced as an error.
    fn try_parallel_map_with<S, U, I, F>(
        &self,
        n: usize,
        grain: usize,
        init: I,
        f: F,
    ) -> Result<Vec<U>, TaskPanic>
    where
        U: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> U + Sync,
    {
        let mut out: Vec<Option<U>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        let slots = SlotPtr(out.as_mut_ptr());
        let runner = |lo: usize, hi: usize| {
            let mut scratch = init();
            for i in lo..hi {
                let v = f(&mut scratch, i);
                // SAFETY: chunks partition 0..n, so each index is visited
                // exactly once and writes land in disjoint slots of a
                // buffer that outlives the call.
                #[expect(unsafe_code, reason = "disjoint-slot write")]
                unsafe { slots.write(i, v) };
            }
        };
        self.run_chunked(n, grain, &runner)?;
        let collected: Vec<U> = out.into_iter().flatten().collect();
        debug_assert_eq!(collected.len(), n, "parallel_map lost a slot");
        Ok(collected)
    }

    /// Splits `0..n` into chunks and executes `runner(lo, hi)` for each
    /// across the pool; the calling thread runs the job's queued chunks
    /// and waits for the ones other threads took.
    fn run_chunked<F>(&self, n: usize, grain: usize, runner: &F) -> Result<(), TaskPanic>
    where
        F: Fn(usize, usize) + Sync,
    {
        if n == 0 {
            return Ok(());
        }
        let grain = grain.max(1);
        let workers = self.workers.len();
        // enough chunks for balance, not so many that queue traffic wins
        let max_chunks = (workers + 1) * 4;
        let chunks = n.div_ceil(grain).min(max_chunks).max(1);
        if workers == 0 || chunks == 1 {
            // inline execution still counts as one task so `pool.tasks`
            // reflects throughput on single-core hosts
            self.shared.tasks_total.inc();
            let result = panic::catch_unwind(AssertUnwindSafe(|| runner(0, n)));
            return result.map_err(|p| TaskPanic::from_payload(p.as_ref()));
        }
        let chunk = n.div_ceil(chunks);
        let tasks = n.div_ceil(chunk);
        let job = job_for(runner, tasks);
        let mut queue = lock(&self.shared.queue);
        queue.extend((0..tasks).map(|t| Task {
            job: Arc::clone(&job),
            lo: t * chunk,
            hi: ((t + 1) * chunk).min(n),
        }));
        self.shared.queue_depth.set(queue.len() as f64);
        self.shared.wake.notify_all();
        // only this job's chunks: every waiter can drain its own job
        while job.pending.get() > 0 {
            let mine = queue.iter().rposition(|t| Arc::ptr_eq(&t.job, &job));
            match mine.and_then(|at| queue.remove(at)) {
                Some(task) => {
                    self.shared.queue_depth.set(queue.len() as f64);
                    drop(queue);
                    self.shared.run_task(task);
                    queue = lock(&self.shared.queue);
                }
                None => queue = self.shared.wake.wait(queue).unwrap_or_else(PoisonError::into_inner),
            }
        }
        drop(queue);
        let panicked = lock(&job.panic_payload).take();
        match panicked {
            Some(payload) => Err(TaskPanic::from_payload(payload.as_ref())),
            None => Ok(()),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.raise();
        {
            let _queue = lock(&self.shared.queue);
            self.shared.wake.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Process-wide parallelism: the `EMBLOOKUP_THREADS` environment variable
/// when set to a positive integer, else `available_parallelism() - 1`
/// (at least 1). Resolved once and cached — every sizing decision in the
/// workspace routes through this single point.
pub fn default_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        if let Some(n) = std::env::var("EMBLOOKUP_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
        {
            return n;
        }
        std::thread::available_parallelism()
            .map(|n| n.get().saturating_sub(1).max(1))
            .unwrap_or(1)
    })
}

#[cfg(test)]
#[expect(clippy::disallowed_types, reason = "the tests count visits with raw atomics of their own")]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn parallel_map_visits_every_index_once() {
        for threads in [1, 2, 4] {
            let pool = Pool::with_threads(threads);
            let n = 1000;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.parallel_map(n, 7, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        for threads in [1, 4] {
            let pool = Pool::with_threads(threads);
            let out = pool.parallel_map(257, 16, |i| i * i);
            assert_eq!(out.len(), 257);
            assert!(out.iter().enumerate().all(|(i, &v)| v == i * i));
        }
    }

    #[test]
    fn scatter_preserves_order_and_contains_panics_per_index() {
        for threads in [1, 4] {
            let pool = Pool::with_threads(threads);
            let out = pool.scatter(7, |i| {
                if i == 3 {
                    panic!("index 3 misbehaved");
                }
                i * 10
            });
            assert_eq!(out.len(), 7);
            for (i, res) in out.iter().enumerate() {
                if i == 3 {
                    let err = res.as_ref().expect_err("index 3 must fail alone");
                    assert!(err.message.contains("index 3 misbehaved"));
                } else {
                    assert_eq!(*res.as_ref().expect("healthy index"), i * 10);
                }
            }
        }
    }

    #[test]
    fn scatter_all_panicking_still_returns_every_slot() {
        let pool = Pool::with_threads(2);
        let out = pool.scatter(4, |_i| -> usize {
            panic!("every shard down");
        });
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|r| r.is_err()));
    }

    #[test]
    fn parallel_map_with_reuses_scratch_per_chunk() {
        for threads in [1, 4] {
            let pool = Pool::with_threads(threads);
            let inits = AtomicUsize::new(0);
            let out = pool.parallel_map_with(
                100,
                10,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::with_capacity(16)
                },
                |scratch, i| {
                    scratch.push(i);
                    i * 2
                },
            );
            assert!(out.iter().enumerate().all(|(i, &v)| v == i * 2));
            let built = inits.load(Ordering::Relaxed);
            assert!((1..=10).contains(&built), "scratch built {built} times");
        }
    }

    #[test]
    #[expect(clippy::unreachable, reason = "the closure must never run over an empty range")]
    fn zero_len_and_single_index_work() {
        let pool = Pool::with_threads(4);
        let none: Vec<usize> = pool.parallel_map(0, 8, |_| unreachable!("no indices"));
        assert!(none.is_empty());
        let out = pool.parallel_map(1, 8, |i| i + 41);
        assert_eq!(out, vec![41]);
    }

    #[test]
    fn nested_parallel_map_completes() {
        // threads = 2 is the single-worker case: the caller and the one
        // worker must help-execute the inner jobs instead of parking
        for threads in [2, 4] {
            let pool = Pool::with_threads(threads);
            let total = AtomicU64::new(0);
            pool.parallel_map(8, 1, |i| {
                // nested submission from both worker and caller threads
                let local: u64 = pool
                    .parallel_map(10, 2, |j| (i * 10 + j) as u64)
                    .into_iter()
                    .sum();
                total.fetch_add(local, Ordering::Relaxed);
            });
            let expect: u64 = (0..80u64).sum();
            assert_eq!(total.load(Ordering::Relaxed), expect);
        }
    }

    #[test]
    fn task_panic_surfaces_as_error_and_workers_survive() {
        for threads in [1, 4] {
            let pool = Pool::with_threads(threads);
            let err = pool
                .try_parallel_map(64, 4, |i| {
                    if i == 13 {
                        panic!("boom at 13");
                    }
                })
                .expect_err("panic must surface");
            assert!(err.message.contains("boom at 13"), "got: {}", err.message);
            // the pool must stay usable afterwards
            let out = pool.parallel_map(8, 2, |i| i);
            assert_eq!(out.len(), 8);
        }
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn parallel_map_rethrows_panic() {
        let pool = Pool::with_threads(4);
        pool.parallel_map(16, 1, |i| {
            if i == 5 {
                panic!("deliberate");
            }
        });
    }

    #[test]
    fn scatter_from_inside_parallel_map() {
        let pool = Pool::with_threads(3);
        let acc = AtomicU64::new(0);
        pool.parallel_map(6, 1, |i| {
            let parts = pool.scatter(2, |side| if side == 0 { i as u64 } else { (i * i) as u64 });
            let sum: u64 = parts.into_iter().map(|r| r.expect("no panic")).sum();
            acc.fetch_add(sum, Ordering::Relaxed);
        });
        let expect: u64 = (0..6u64).map(|i| i + i * i).sum();
        assert_eq!(acc.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let serial = Pool::with_threads(1);
        let wide = Pool::with_threads(4);
        let f = |i: usize| (i as f32).sqrt() * 1.5 + (i % 7) as f32;
        let a = serial.parallel_map(500, 8, f);
        let b = wide.parallel_map(500, 8, f);
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn drop_joins_workers() {
        let pool = Pool::with_threads(4);
        pool.parallel_map(100, 5, |_| {});
        drop(pool); // must not hang
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let p1 = Pool::global();
        let p2 = Pool::global();
        assert!(std::ptr::eq(p1, p2));
        assert!(p1.threads() >= 1);
        let out = p1.parallel_map(32, 4, |i| i as u32);
        assert_eq!(out.len(), 32);
    }
}
