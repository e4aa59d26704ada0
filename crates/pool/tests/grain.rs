//! What `Pool::scatter_grained` does on either side of its grain.
//!
//! One test, alone in its binary: it reads the process-wide `pool.tasks`
//! counter, which any other test running beside it would move.

use emblookup_obs::names;
use emblookup_pool::Pool;
use std::sync::Mutex;
use std::thread::{self, ThreadId};

fn tasks() -> u64 {
    emblookup_obs::global().snapshot().counter(names::POOL_TASKS.as_str()).unwrap_or(0)
}

#[test]
fn a_fan_out_within_one_grain_stays_on_the_calling_thread() {
    let pool = Pool::with_threads(4);
    let caller = thread::current().id();
    let ran: Mutex<Vec<(usize, ThreadId)>> = Mutex::new(Vec::new());
    let visit = |i: usize| {
        ran.lock().unwrap().push((i, thread::current().id()));
        if i == 1 {
            panic!("index 1 misbehaved");
        }
        i * 10
    };

    // Three indices, eight to a task: nothing to hand out.
    let before = tasks();
    let out = pool.scatter_grained(3, 8, visit);
    assert_eq!(tasks() - before, 1, "one inline chunk, counted once");
    assert_eq!(
        *ran.lock().unwrap(),
        vec![(0, caller), (1, caller), (2, caller)],
        "every index on the caller, in index order"
    );
    assert_eq!(
        emblookup_obs::global().snapshot().gauge(names::POOL_QUEUE_DEPTH.as_str()).unwrap_or(0.0),
        0.0,
        "nothing was ever queued"
    );
    assert_eq!(out.len(), 3);
    assert_eq!(*out[0].as_ref().expect("sibling of the panic"), 0);
    let failed = out[1].as_ref().expect_err("index 1 fails alone");
    assert!(failed.message.contains("index 1 misbehaved"));
    assert_eq!(*out[2].as_ref().expect("sibling of the panic"), 20);

    // Sixteen indices, eight to a task: two tasks go through the queue,
    // and per-index containment is the same.
    ran.lock().unwrap().clear();
    let before = tasks();
    let out = pool.scatter_grained(16, 8, visit);
    assert_eq!(tasks() - before, 2);
    let mut visited: Vec<usize> = ran.lock().unwrap().iter().map(|&(i, _)| i).collect();
    visited.sort_unstable();
    assert_eq!(visited, (0..16).collect::<Vec<_>>());
    assert_eq!(out.iter().filter(|r| r.is_err()).count(), 1);

    // Grain 1 is `scatter`: one task per index.
    let before = tasks();
    let out = pool.scatter(3, |i| i);
    assert_eq!(tasks() - before, 3);
    assert_eq!(out.into_iter().map(|r| r.expect("no panic")).collect::<Vec<_>>(), vec![0, 1, 2]);
}
