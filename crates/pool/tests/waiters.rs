//! How a submitter waits for its job, with no timed wait to fall back on.
//!
//! A lost wake-up hangs these tests, and a waiter that runs another
//! job's chunk fails them.

#![allow(clippy::unwrap_used, reason = "integration-test helpers panic to report a failure")]

use emblookup_pool::Pool;
use std::collections::HashMap;
use std::sync::{Barrier, Mutex};
use std::thread::{self, ThreadId};

/// The job each thread is waiting on, if any.
#[derive(Default)]
struct Waiting(Mutex<HashMap<ThreadId, u64>>);

impl Waiting {
    /// Marks the calling thread as waiting on `job` (or on none) and
    /// returns what it was waiting on before.
    fn set(&self, job: Option<u64>) -> Option<u64> {
        let me = thread::current().id();
        let mut map = self.0.lock().unwrap();
        match job {
            Some(job) => map.insert(me, job),
            None => map.remove(&me),
        }
    }

    fn get(&self) -> Option<u64> {
        self.0.lock().unwrap().get(&thread::current().id()).copied()
    }
}

/// Runs job `tag` as eight one-index chunks, each checking that the thread
/// running it waits on no job or on this one; with `nest`, each chunk
/// first runs a job of its own.
fn run_job(pool: &Pool, waiting: &Waiting, tag: u64, nest: bool) {
    let before = waiting.set(Some(tag));
    pool.parallel_map(8, 1, |i| {
        if let Some(job) = waiting.get() {
            assert_eq!(job, tag, "a thread waiting on job {job} ran a chunk of job {tag}");
        }
        if nest {
            run_job(pool, waiting, tag + i as u64 + 1, false);
        }
        // long enough for other jobs' chunks to queue up meanwhile
        std::hint::black_box((0..2_000u64).sum::<u64>());
    });
    waiting.set(before);
}

#[test]
fn a_waiting_submitter_runs_only_its_own_jobs_chunks() {
    for threads in [2, 4] {
        let pool = Pool::with_threads(threads);
        let waiting = Waiting::default();
        let start = Barrier::new(4);
        thread::scope(|s| {
            for t in 0..4u64 {
                let (pool, waiting, start) = (&pool, &waiting, &start);
                s.spawn(move || {
                    start.wait();
                    for round in 0..50u64 {
                        run_job(pool, waiting, ((t + 1) * 1_000 + round) * 100, true);
                    }
                });
            }
        });
    }
}

#[test]
fn plain_threads_nesting_fan_outs_on_two_pools_all_finish() {
    // four threads, like the serving tier's request threads, each
    // nesting both kinds of fan-out on both widths and across them
    let pools = [Pool::with_threads(2), Pool::with_threads(4)];
    let start = Barrier::new(4);
    thread::scope(|s| {
        for t in 0..4usize {
            let (pools, start) = (&pools, &start);
            s.spawn(move || {
                start.wait();
                for round in 0..200usize {
                    let outer = &pools[(t + round) % 2];
                    let inner = &pools[(t + round / 2) % 2];
                    let sums = outer.parallel_map(8, 1, |i| {
                        inner
                            .scatter_grained(6, 2, |j| i * j + t + round)
                            .into_iter()
                            .map(|r| r.expect("no index panics"))
                            .sum::<usize>()
                    });
                    let expect: Vec<usize> =
                        (0..8).map(|i| (0..6).map(|j| i * j + t + round).sum()).collect();
                    assert_eq!(sums, expect, "thread {t}, round {round}");
                }
            });
        }
    });
}
