//! A flat search split over the pool counts one query and every row it
//! scores, however many chunks ran it, and a batch's queries do not
//! split: `ann.flat.visited_nodes / searches` is the index size.
//!
//! One test, alone in its binary: the counters are process-wide. It pins
//! the pool to width 4 before anything reads the width, so the split
//! runs on every host.

use emblookup_ann::{AnnIndex, FlatIndex, VectorSet};
use emblookup_obs::names::{self, Name};
use emblookup_pool::Pool;

fn counter(name: Name) -> u64 {
    emblookup_obs::global().snapshot().counter(name.as_str()).unwrap_or(0)
}

/// How `f` moves the three counters: (searches, visited, pool tasks).
fn spent(f: impl FnOnce()) -> [u64; 3] {
    let read = || [counter(names::ANN_FLAT_SEARCHES), counter(names::ANN_FLAT_VISITED), counter(names::POOL_TASKS)];
    let before = read();
    f();
    let after = read();
    [0, 1, 2].map(|i| after[i] - before[i])
}

#[test]
fn a_split_scan_counts_one_query_and_every_row() {
    std::env::set_var("EMBLOOKUP_THREADS", "4");
    assert_eq!(Pool::global().threads(), 4);
    let queries = VectorSet::from_flat(8, (0..8 * 8).map(|i| (i as f32 * 0.3).cos()).collect());
    let q = queries.get(0);

    // 3 x 8 192 + 7 rows: four chunks at width 4, one task each
    let n = 3 * 8_192 + 7;
    let flat = FlatIndex::new(VectorSet::from_flat(8, (0..n * 8).map(|i| (i as f32 * 0.618).sin()).collect()));
    let n = n as u64;
    assert_eq!(spent(|| drop(flat.search(q, 10))), [1, n, 4]);
    // eight queries in eight batch tasks (two per thread), none split
    assert_eq!(spent(|| drop(flat.search_batch(&queries, 10, 4))), [8, 8 * n, 8]);
}
