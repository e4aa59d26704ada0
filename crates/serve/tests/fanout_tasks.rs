//! How many pool tasks a request costs on either side of the fan-out's
//! grain.
//!
//! The count rule: a `/lookup` below the grain is the one inline chunk
//! the pool counts for bookkeeping. A bulk is its embedding pass, plus
//! one task per shard attempt (one inline chunk when the pool has
//! nobody to hand a task to), plus — when an attempt's share of the
//! pool, width / attempts, is above 1 — the chunks of that attempt's own
//! `search_batch`, two per thread of its share. For 32 queries over 2
//! shards that is `+1` at width 1, `+2` at widths 2–3 (share 1: each
//! attempt searches its batch sequentially) and `+2 + 2 × 4` at width 4
//! (share 2: four chunks of eight queries per attempt).
//!
//! One test, alone in its binary: it reads the process-wide `pool.tasks`
//! counter, which any other server running beside it would move.
//! `scripts/ci.sh` runs it at `EMBLOOKUP_THREADS` 1, 2 and 4.

use emblookup_core::{EmbLookup, EmbLookupConfig};
use emblookup_kg::{generate, EntityId, SynthKgConfig};
use emblookup_obs::names;
use emblookup_pool::Pool;
use emblookup_serve::{client, ServeConfig, Server};

fn pool_tasks_spent(work: impl FnOnce()) -> u64 {
    let tasks = || emblookup_obs::global().snapshot().counter(names::POOL_TASKS.as_str()).unwrap_or(0);
    let before = tasks();
    work();
    tasks() - before
}

#[test]
fn a_lookup_stays_off_the_pool_and_a_bulk_takes_one_task_per_shard() {
    let synth = generate(SynthKgConfig::tiny(77));
    let kg = &synth.kg;
    let service = EmbLookup::train_on(kg, EmbLookupConfig::tiny(77));
    let model = service.model_arc();
    let server = Server::start(
        service,
        kg,
        ServeConfig {
            workers: 2,
            shards: 2,
            ..ServeConfig::default()
        },
    )
    .expect("server must start");
    let mut conn = client::Connection::open(server.addr()).unwrap();

    // One search per shard, two shards: below the grain, so the whole
    // fan-out is the one inline chunk the pool counts for bookkeeping.
    let single = format!("{{\"q\":\"{}\",\"k\":3}}", kg.label(EntityId(0)));
    let spent = pool_tasks_spent(|| {
        let resp = conn.post_json("/lookup", &single, &[]).unwrap();
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        assert_eq!(resp.header("x-emblookup-shards"), Some("2/2"));
    });
    assert_eq!(spent, 1, "a two-shard /lookup must not queue a pool task");

    // Thirty-two searches per shard: each shard is a task of its own,
    // on top of whatever the batch's one embedding pass spends, and
    // fans its batch out again over its share of the pool.
    let labels: Vec<&str> = (0..32u32).map(|i| kg.label(EntityId(i % 8))).collect();
    let embed_spent = pool_tasks_spent(|| {
        model.embed_batch(&labels, emblookup_core::num_threads());
    });
    let queries: Vec<String> = labels.iter().map(|l| format!("\"{l}\"")).collect();
    let bulk = format!("{{\"queries\":[{}],\"k\":3}}", queries.join(","));
    let spent = pool_tasks_spent(|| {
        let resp = conn.post_json("/lookup/bulk", &bulk, &[]).unwrap();
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        assert_eq!(resp.header("x-emblookup-shards"), Some("2/2"));
    });
    let width = Pool::global().threads() as u64;
    // A pool of one has nobody to hand a task to: it runs inline too.
    let attempts = if width > 1 { 2 } else { 1 };
    // Each attempt's `search_batch` on its share of the pool: chunks of
    // 32 / (2 × share) queries, none when the share is one thread.
    let share = width / 2;
    let batch_chunks = if share > 1 { 32u64.div_ceil(32u64.div_ceil(share * 2)) } else { 0 };
    assert_eq!(spent - embed_spent, attempts + 2 * batch_chunks, "bulk of 32 over 2 shards");
}
