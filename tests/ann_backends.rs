//! Cross-backend contract test: every index in `emblookup-ann` answers the
//! same workload with consistent semantics (sorted results, bounded k) and
//! reasonable recall against the exact flat index.

use emblookup::ann::{
    lsh::LshConfig, AnnIndex, FlatIndex, HnswConfig, HnswIndex, HnswPqConfig, HnswPqIndex,
    IvfConfig, IvfIndex, PqConfig, PqIndex, VectorSet,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_set(n: usize, dim: usize, seed: u64) -> VectorSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vs = VectorSet::new(dim);
    for _ in 0..n {
        let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        vs.push(&v);
    }
    vs
}

fn recall_vs_flat(flat: &FlatIndex, index: &dyn AnnIndex, queries: &VectorSet, k: usize) -> f64 {
    let mut acc = 0.0;
    for q in queries.iter() {
        let truth: Vec<usize> = flat.search(q, k).iter().map(|n| n.index).collect();
        let got: Vec<usize> = index.search_counted(q, k).0.iter().map(|n| n.index).collect();
        acc += truth.iter().filter(|i| got.contains(i)).count() as f64 / k as f64;
    }
    acc / queries.len() as f64
}

#[test]
fn all_backends_honor_the_search_contract() {
    let data = random_set(600, 16, 1);
    let queries = random_set(20, 16, 2);
    let flat = FlatIndex::new(data.clone());

    let pq_cfg = PqConfig { m: 4, ks: 32, kmeans_iters: 8, seed: 0 };
    let backends: Vec<(Box<dyn AnnIndex>, f64)> = vec![
        (Box::new(flat.clone()), 1.0),
        (Box::new(PqIndex::build(&data, pq_cfg)), 0.45),
        (
            Box::new(IvfIndex::build(
                data.clone(),
                IvfConfig { nlist: 16, nprobe: 6, kmeans_iters: 8, seed: 0 },
            )),
            0.55,
        ),
        (Box::new(HnswIndex::build(data.clone(), HnswConfig::default())), 0.80),
        (
            Box::new(HnswPqIndex::build(
                &data,
                HnswPqConfig {
                    // quantized traversal needs a wider beam than exact HNSW
                    hnsw: HnswConfig { ef_search: 96, ..HnswConfig::default() },
                    pq: pq_cfg,
                },
            )),
            0.85,
        ),
    ];

    for (index, min_recall) in &backends {
        let name = index.name();
        assert_eq!(index.len(), 600, "{name}");
        assert!(index.nbytes() > 0, "{name} reports no storage");

        // contract: sorted ascending, distinct, bounded by k
        let (hits, visited) = index.search_counted(queries.get(0), 10);
        assert!(visited > 0, "{name} visited nothing");
        assert!(hits.len() <= 10, "{name} overflowed k");
        for w in hits.windows(2) {
            assert!(w[0].dist <= w[1].dist, "{name} returned unsorted results");
        }
        let mut ids: Vec<usize> = hits.iter().map(|n| n.index).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), hits.len(), "{name} returned duplicates");

        // recall floor
        let r = recall_vs_flat(&flat, index.as_ref(), &queries, 10);
        assert!(r >= *min_recall, "{name} recall@10 {r} below floor {min_recall}");

        // the batched path is bit-identical to per-query search at any width
        for threads in [1, 2] {
            let batch = index.search_batch(&queries, 10, threads);
            assert_eq!(batch.len(), queries.len(), "{name}");
            for (q, hits) in queries.iter().zip(&batch) {
                assert_eq!(*hits, index.search_counted(q, 10).0, "{name} threads {threads}");
            }
        }

        // contract: `k` bounds the answer, it is not a size to reserve —
        // past `len()` every backend returns all it can reach (IVF: the
        // lists it probes), ascending and distinct
        for k in [601, 1 << 40, usize::MAX] {
            let (all, _) = index.search_counted(queries.get(0), k);
            if name == "ivf" {
                assert!(all.len() > 10 && all.len() <= 600, "{name} k {k}: {} hits", all.len());
            } else {
                assert_eq!(all.len(), 600, "{name} k {k}");
            }
            assert!(all.windows(2).all(|w| w[0].dist <= w[1].dist), "{name} k {k} unsorted");
            let mut ids: Vec<usize> = all.iter().map(|n| n.index).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), all.len(), "{name} k {k} returned duplicates");
            assert_eq!(index.search_batch(&queries, k, 2)[0], all, "{name} k {k} batch");
        }
    }
}

#[test]
fn lsh_candidates_find_near_duplicates() {
    use emblookup::ann::lsh::hash_feature;
    use emblookup::ann::MinHashLsh;
    use emblookup::text::distance::qgrams;

    let mut lsh = MinHashLsh::new(LshConfig { bands: 16, rows: 3, seed: 0 });
    let names = ["product quantization", "product quantisation", "hnsw graph", "flat index"];
    for (i, n) in names.iter().enumerate() {
        let f: Vec<u64> = qgrams(n, 3).iter().map(|g| hash_feature(g)).collect();
        lsh.insert(i as u32, &f);
    }
    let f: Vec<u64> = qgrams("product quantization", 3).iter().map(|g| hash_feature(g)).collect();
    let cands = lsh.candidates(&f);
    assert!(cands.contains(&0));
    assert!(cands.contains(&1), "near-duplicate spelling missed");
}
