//! Heap-allocation budget of the query path, counted in the running binary.
//!
//! A source-level rule could only match allocation *idioms* — `format!`,
//! `to_string`, `Box::new`; a `Tensor` per layer or a `String` per n-gram
//! is invisible to it. This test wraps the global allocator and counts
//! what one call really does, and is the query path's only allocation
//! check — and, beside it, the SGNS pair step's, the training loop every
//! set-up runs millions of times, and the triplet trainer's micro-batch. Every bound below is a
//! ratchet: it states today's figure and may only be lowered.
//!
//! One `#[test]` only: the counter is process-wide, so that the pool's
//! workers are counted too, and a second test running beside this one
//! would be counted with them.

use emblookup::core::trainer::run_micro_batch;
use emblookup::core::{mine_triplets, EmbLookupModel, EncodeScratch, MiningConfig};
use emblookup::tensor::optim::GradBuffer;
use emblookup::embed::sgns::SgnsModel;
use emblookup::embed::{Corpus, FastText, FastTextConfig};
use emblookup::obs::sync::RelaxedU64;
use emblookup::prelude::*;
use emblookup::text::NoiseInjector;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::Arc;

struct CountingAllocator;

static ALLOCATIONS: RelaxedU64 = RelaxedU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; the counter is a relaxed
// atomic add and allocates nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.add(1);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.add(1);
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.add(1);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations (and reallocations) made, on any thread, while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.get();
    std::hint::black_box(f());
    ALLOCATIONS.get() - before
}

/// The most any one of `queries` costs under `f`.
fn worst<'a>(queries: &[&'a str], mut f: impl FnMut(&'a str)) -> u64 {
    queries.iter().map(|q| allocations(|| f(q))).max().unwrap_or(0)
}

#[test]
fn query_path_stays_inside_its_allocation_budget() {
    // the paper's architecture over the 600-entity graph; the weights need
    // no training to allocate like trained ones
    let synth = generate(SynthKgConfig::small(11));
    let config = EmbLookupConfig::default();
    let corpus = Corpus::from_kg(&synth.kg);
    let fasttext =
        FastText::train(&corpus, FastTextConfig { dim: config.fasttext_dim, epochs: 1, ..Default::default() });

    // The fastText leg alone, warm after one call on the longest string: a
    // vocabulary token reads its precomputed row, a token outside it hashes
    // its n-grams into the caller's buffer — neither allocates.
    let known: Vec<String> = (0..corpus.vocab_size().min(300) as u32).map(|id| corpus.token(id).to_string()).collect();
    let unknown: Vec<String> = (0..300).map(|i| format!("qx{i}zvk wq{i}")).collect();
    let (mut wrapped, mut token_vec, mut semantic) =
        (String::new(), vec![0.0f32; config.fasttext_dim], vec![0.0f32; config.fasttext_dim]);
    let longest = known.iter().chain(&unknown).max_by_key(|s| s.len()).map_or("", String::as_str);
    fasttext.embed_into(longest, &mut wrapped, &mut token_vec, &mut semantic);
    for (tokens, strings) in [("known", &known), ("unknown", &unknown)] {
        let warm = allocations(|| {
            for s in strings {
                fasttext.embed_into(s, &mut wrapped, &mut token_vec, &mut semantic);
            }
        });
        assert_eq!(warm, 0, "FastText::embed_into on {tokens} tokens allocated {warm} times over {} strings", strings.len());
    }

    // SGNS's pair step works in the model's own scratch: warm after one
    // pair with the most output rows, neither the dots-first path (distinct
    // rows) nor the row-at-a-time one (a repeated negative) allocates.
    let mut rng = StdRng::seed_from_u64(5);
    let mut sgns = SgnsModel::new(1 << 12, 600, config.fasttext_dim, &mut rng);
    sgns.train_pair(&[1, 2, 3], 0, &[10, 11, 12, 13, 14], 0.05);
    let warm = allocations(|| {
        for i in 0..1000u32 {
            let negatives = [i % 600, (7 * i) % 600, (i + 1) % 600, (i * i) % 600, (3 * i) % 5];
            sgns.train_pair(&[i % 4096, (i * 31) % 4096, 17], (i * 13) % 600, &negatives, 0.05);
        }
    });
    assert_eq!(warm, 0, "SgnsModel::train_pair allocated {warm} times over 1000 warm pairs");

    let model = Arc::new(EmbLookupModel::new(fasttext, config));

    // 200 mixed strings: labels, one typo each, aliases, and the shapes
    // that take the odd branches (empty, blank, non-alphabet, over max_len)
    let typos = NoiseInjector::typos();
    let mut rng = StdRng::seed_from_u64(3);
    let mut owned: Vec<String> =
        ["", " ", "日本語", "Ünïcode Straße", "a"].map(String::from).to_vec();
    owned.push("x".repeat(500));
    for e in synth.kg.entities().take(65) {
        owned.push(e.label.clone());
        owned.push(typos.corrupt(&e.label, &mut rng));
        owned.push(e.aliases.first().unwrap_or(&e.label).clone());
    }
    let queries: Vec<&str> = owned.iter().map(String::as_str).take(200).collect();
    assert_eq!(queries.len(), 200);

    // A warm scratch allocates nothing. The one warm-up call is on the
    // longest string: the token buffer grows to the longest string seen.
    let mut scratch = EncodeScratch::default();
    let longest = queries.iter().copied().max_by_key(|q| q.len()).unwrap_or("");
    model.encode(longest, &mut scratch);
    let warm = allocations(|| {
        for q in &queries {
            scratch.clear();
            model.encode(q, &mut scratch);
        }
    });
    assert_eq!(warm, 0, "encode with a warm scratch allocated {warm} times over 200 strings");

    // `embed` = the output vector: it works in the thread's scratch, warm
    // after one call on the longest string. Was 91 per call on average
    // with a `Tensor` per layer, then 3 with a fresh scratch per call.
    drop(model.embed(longest));
    let embed = worst(&queries, |q| drop(model.embed(q)));
    assert!(embed <= 1, "embed allocated {embed} times (budget 1)");

    // A lookup embeds into per-thread buffers (warm after the first call,
    // like PQ's distance table and HnswPq's search scratch) and pays only
    // what `EntityIndex::search` costs: the neighbour list and the entity
    // list. Was 94, then 6 on PQ, then 5 with a fresh scratch and output
    // vector per call. HnswPq is the backend both served benchmark
    // workloads run on, configured as they configure it.
    let hnsw_pq = Compression::HnswPq { m: 16, ef_search: 64, pq_m: 8, pq_ks: 256 };
    for (compression, budget, per_chunk) in
        [(Compression::None, 2, 16), (Compression::default_pq(), 2, 16), (hnsw_pq, 2, 24)]
    {
        let service = EmbLookup::from_model(Arc::clone(&model), &synth.kg, compression);
        service.lookup_with_distances(longest, 10);
        let lookup = worst(&queries, |q| drop(service.lookup_with_distances(q, 10)));
        assert!(
            lookup <= budget,
            "lookup_with_distances on {} allocated {lookup} times (budget {budget})",
            compression.name()
        );

        // Bulk: three per query — the output vector from `embed_batch`,
        // the neighbour list, the entity list — and a per-call part that
        // grows with the pool width: a scratch and a task per chunk, the
        // result slots, the batch's query matrix (8 at width 1, 38 at 2,
        // 85 at 8 when this was written). HnswPq searches in each
        // thread's warm scratch, so it allocates what flat does; its
        // budget keeps the larger per-chunk part it had when its chunks
        // built a scratch each.
        let batch: Vec<&str> = queries.iter().copied().cycle().take(256).collect();
        service.bulk_lookup(&batch, 10);
        let bulk = allocations(|| drop(service.bulk_lookup(&batch, 10)));
        let bulk_budget = 3 * batch.len() as u64 + per_chunk * (emblookup::core::num_threads() as u64 + 1);
        assert!(
            bulk <= bulk_budget,
            "bulk_lookup of 256 on {} allocated {bulk} times (budget {bulk_budget})",
            compression.name()
        );
    }

    // Training: with a warm scratch the encoder's forward and backward
    // passes allocate nothing per mention — the activation records, the
    // gradient planes and the transposed weights reuse their memory, and a
    // gradient buffer's slots exist after the first mention.
    let triplets = mine_triplets(&synth.kg, &MiningConfig::with_budget(6, 1));
    let mentions: Vec<&str> = triplets.iter().take(40).flat_map(|t| [&t.anchor, &t.positive, &t.negative]).map(String::as_str).collect();
    let (mut scratch, mut grads) = (EncodeScratch::default(), GradBuffer::new());
    let grad: Vec<f32> = (0..model.dim()).map(|i| (i as f32 * 0.37).sin()).collect();
    let step = |scratch: &mut EncodeScratch, grads: &mut GradBuffer| {
        scratch.clear();
        for m in &mentions {
            model.encode(m, scratch);
        }
        for n in (0..mentions.len()).rev() {
            model.backprop(n, &grad, scratch, grads);
        }
    };
    step(&mut scratch, &mut grads);
    let warm = allocations(|| step(&mut scratch, &mut grads));
    assert_eq!(warm, 0, "encode + backprop allocated {warm} times over {} warm mentions", mentions.len());

    // A whole micro-batch adds the loss tape over the embeddings: per
    // distinct mention a leaf, per triplet ten loss nodes and the
    // gradients their backward pass clones and builds, a tensor (shape and
    // data) each — 2 541 for these 32 triplets when this was written, ≈ 79
    // a triplet — plus the micro-batch's gradient buffer and lists.
    let micro: Vec<usize> = (0..32).collect();
    run_micro_batch(&model, &triplets, &micro);
    let batch = allocations(|| run_micro_batch(&model, &triplets, &micro));
    let budget = 80 * micro.len() as u64 + 64;
    assert!(batch <= budget, "a warm micro-batch of {} triplets allocated {batch} times (budget {budget})", micro.len());
}
