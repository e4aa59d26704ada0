//! End-to-end check that the instrumented pipeline actually reports what
//! it does: training emits one event per epoch, the index build is timed,
//! and every single-query lookup lands in the latency histogram.
//!
//! One test function on purpose — the assertions read the process-global
//! registry and the global subscriber, which parallel tests would share.

use emblookup_core::{Compression, EmbLookup, EmbLookupConfig, ShardedIndex};
use emblookup_kg::{generate, LookupService, SynthKgConfig};
use emblookup_obs::{CollectingSubscriber, EventKind};
use std::sync::Arc;

#[test]
fn training_and_lookups_populate_the_registry() {
    let sub = Arc::new(CollectingSubscriber::new());
    emblookup_obs::set_subscriber(sub.clone());

    let s = generate(SynthKgConfig::tiny(17));
    let config = EmbLookupConfig::tiny(17);
    let epochs = config.epochs;
    let el = EmbLookup::train_on(&s.kg, config);

    let labels: Vec<String> = s.kg.entities().map(|e| e.label.clone()).collect();
    for i in 0..100 {
        let hits = el.lookup(&labels[i % labels.len()], 5);
        assert_eq!(hits.len(), 5);
    }

    // bulk path: the batch's wall time is attributed per query
    let qrefs: Vec<&str> = labels.iter().take(8).map(|s| s.as_str()).collect();
    let batch = el.bulk_lookup(&qrefs, 3);
    assert_eq!(batch.len(), 8);
    // a second index over the same model, on the backend whose build has
    // every phase: graph, quantizer, encode
    let fused = Compression::HnswPq { m: 8, ef_search: 32, pq_m: 4, pq_ks: 16 };
    let reindexed = EmbLookup::from_model(el.model_arc(), &s.kg, fused);
    assert_eq!(reindexed.index().backend_name(), "hnswpq");
    // ... and a third, in three shards: one index as far as the registry
    // is concerned, its size the total over the shards
    let sharded = ShardedIndex::build(el.model(), &s.kg, fused, 3, 1);
    emblookup_obs::clear_subscriber();

    // one structured event per training epoch, exactly
    assert_eq!(sub.count("train.epoch", EventKind::Point), epochs);
    // ... and the span ends for each pipeline stage
    for stage in ["train.total", "train.fasttext", "train.mining", "train.triplet"] {
        assert_eq!(sub.count(stage, EventKind::SpanEnd), 1, "stage {stage}");
    }
    assert_eq!(sub.count("index.build", EventKind::SpanEnd), 3);

    // the build says where its time goes: every build embeds the labels
    // once, only the fused ones have a graph, codebooks and codes — the
    // whole index one of each, the sharded one one of each per shard
    assert_eq!(sub.count("index.build.embed", EventKind::SpanEnd), 3);
    for phase in ["index.build.graph", "index.build.quantizer", "index.build.encode"] {
        assert_eq!(sub.count(phase, EventKind::SpanEnd), 1 + 3, "phase {phase}");
    }
    // ... and fastText how many of its pairs took every dot first
    let events = sub.events();
    let fasttext = events
        .iter()
        .find(|e| e.name == "train.fasttext" && e.kind == EventKind::SpanEnd)
        .expect("train.fasttext span end");
    let field = |key: &str| -> u64 {
        let value = fasttext.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.parse());
        value.unwrap_or_else(|| panic!("train.fasttext has no field {key}")).expect("an integer")
    };
    assert!(field("pairs") > 0);
    assert!(field("pairs_fast") > 0 && field("pairs_fast") <= field("pairs"));

    let snap = emblookup_obs::global().snapshot();
    assert_eq!(snap.counter("train.epochs"), Some(epochs as u64));
    assert!(snap.counter("mining.triplets").unwrap_or(0) > 0);

    let build = snap.histogram("index.build").expect("index.build timed");
    assert_eq!(build.count, 3);
    assert!(build.max() > 0, "index build recorded a zero duration");

    let lat = snap.histogram("lookup.latency").expect("lookup latency histogram");
    assert_eq!(lat.count, 100);
    assert!(lat.p50() > 0 && lat.p99() >= lat.p50());

    // the bulk batch lands once in lookup.bulk, and once per query —
    // with the batch's wall time split evenly — in lookup.latency.bulk,
    // so batched and single-query latency are directly comparable
    let bulk_batch = snap.histogram("lookup.bulk").expect("bulk batch histogram");
    assert_eq!(bulk_batch.count, 1);
    let bulk = snap.histogram("lookup.latency.bulk").expect("bulk per-query latency");
    assert_eq!(bulk.count, 8);
    assert!(bulk.max() > 0, "bulk per-query latency recorded a zero duration");
    assert!(
        bulk.sum <= bulk_batch.sum,
        "per-query attribution {} exceeds batch wall time {}",
        bulk.sum,
        bulk_batch.sum
    );
    assert_eq!(snap.counter("lookup.bulk.queries"), Some(8));

    // the tiny config indexes a flat backend: the ann counters must agree
    // (100 single lookups + 8 bulk queries)
    assert_eq!(snap.counter("ann.flat.searches"), Some(108));
    // the gauges describe the index built last: the three shards together
    assert_eq!(snap.gauge("index.entities"), Some(s.kg.num_entities() as f64));
    let shard_bytes: usize = (0..3).map(|shard| sharded.shard(shard).nbytes()).sum();
    assert_eq!(sharded.nbytes(), shard_bytes);
    assert_eq!(snap.gauge("index.nbytes"), Some(shard_bytes as f64));
    assert_ne!(shard_bytes, reindexed.index().nbytes(), "three codebooks are not one");
}
