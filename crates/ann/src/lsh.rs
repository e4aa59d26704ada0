//! MinHash LSH over feature sets — the locality-sensitive-hashing baseline
//! of Table V (the paper cites an LSH variant optimized for Levenshtein
//! distance; q-gram MinHash is the standard such construction).
//!
//! Items are arbitrary `u64` feature sets (the baselines crate feeds hashed
//! character q-grams). Signatures of `bands × rows` min-hashes are banded;
//! items sharing any band bucket with the query become candidates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Configuration for [`MinHashLsh`].
#[derive(Debug, Clone, Copy)]
pub struct LshConfig {
    /// Number of bands.
    pub bands: usize,
    /// Hash rows per band (signature length = `bands * rows`).
    pub rows: usize,
    /// RNG seed for the hash family.
    pub seed: u64,
}

impl Default for LshConfig {
    fn default() -> Self {
        LshConfig { bands: 16, rows: 4, seed: 0 }
    }
}

/// MinHash LSH index over `u64` feature sets.
///
/// Plain data, no interior locking: inserts take `&mut self` (the index
/// is built once, single-threaded), and the query path is a lock-free
/// shared read — any number of threads can call [`MinHashLsh::candidates`]
/// concurrently through `&self`.
pub struct MinHashLsh {
    config: LshConfig,
    /// (a, b) coefficients of the universal hash family.
    coeffs: Vec<(u64, u64)>,
    /// One bucket map per band: band-hash → item ids.
    tables: Vec<HashMap<u64, Vec<u32>>>,
    len: usize,
}

impl MinHashLsh {
    /// Creates an empty index.
    ///
    /// # Panics
    /// Panics when `bands` or `rows` is zero.
    pub fn new(config: LshConfig) -> Self {
        assert!(config.bands > 0 && config.rows > 0, "bands/rows must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let coeffs = (0..config.bands * config.rows)
            .map(|_| (rng.gen::<u64>() | 1, rng.gen::<u64>()))
            .collect();
        MinHashLsh {
            config,
            coeffs,
            tables: vec![HashMap::new(); config.bands],
            len: 0,
        }
    }

    /// MinHash signature of a feature set. Empty sets get a fixed sentinel
    /// signature so they collide only with other empty sets.
    pub(crate) fn signature(&self, features: &[u64]) -> Vec<u64> {
        let n = self.config.bands * self.config.rows;
        if features.is_empty() {
            return vec![u64::MAX; n];
        }
        self.coeffs
            .iter()
            .map(|&(a, b)| {
                features
                    .iter()
                    .map(|&f| a.wrapping_mul(f).wrapping_add(b))
                    .min()
                    .unwrap_or(u64::MAX) // unreachable: features checked non-empty above
            })
            .collect()
    }

    /// Inserts an item with identifier `id` and its feature set.
    pub fn insert(&mut self, id: u32, features: &[u64]) {
        let sig = self.signature(features);
        for (band, table) in self.tables.iter_mut().enumerate() {
            let h = band_hash(&sig[band * self.config.rows..(band + 1) * self.config.rows]);
            table.entry(h).or_default().push(id);
        }
        self.len += 1;
    }

    /// Candidate items sharing at least one band bucket with the query
    /// features, deduplicated, in ascending id order.
    pub fn candidates(&self, features: &[u64]) -> Vec<u32> {
        let sig = self.signature(features);
        let mut out = Vec::new();
        for (band, table) in self.tables.iter().enumerate() {
            let h = band_hash(&sig[band * self.config.rows..(band + 1) * self.config.rows]);
            if let Some(bucket) = table.get(&h) {
                out.extend_from_slice(bucket);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

fn band_hash(rows: &[u64]) -> u64 {
    let mut h = DefaultHasher::new();
    rows.hash(&mut h);
    h.finish()
}

/// Hashes a string feature (e.g. a q-gram) to `u64` for use as an LSH
/// feature.
pub fn hash_feature(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use emblookup_text::distance::qgrams;

    fn features(s: &str) -> Vec<u64> {
        qgrams(s, 3).iter().map(|g| hash_feature(g)).collect()
    }

    #[test]
    fn similar_strings_collide() {
        let mut lsh = MinHashLsh::new(LshConfig { bands: 16, rows: 2, seed: 1 });
        let names = ["germany", "germani", "france", "japan", "germny"];
        for (i, n) in names.iter().enumerate() {
            lsh.insert(i as u32, &features(n));
        }
        let cands = lsh.candidates(&features("germany"));
        assert!(cands.contains(&0), "exact match missing");
        assert!(cands.contains(&1) || cands.contains(&4), "no typo variant found");
    }

    #[test]
    fn dissimilar_strings_rarely_collide() {
        let mut lsh = MinHashLsh::new(LshConfig { bands: 8, rows: 6, seed: 2 });
        lsh.insert(0, &features("completely different"));
        let cands = lsh.candidates(&features("zzzqqqxxx"));
        assert!(cands.is_empty(), "unexpected candidates {cands:?}");
    }

    #[test]
    fn identical_sets_always_collide() {
        let mut lsh = MinHashLsh::new(LshConfig::default());
        lsh.insert(7, &features("knowledge graph"));
        let cands = lsh.candidates(&features("knowledge graph"));
        assert_eq!(cands, vec![7]);
    }

    #[test]
    fn empty_features_dont_crash() {
        let mut lsh = MinHashLsh::new(LshConfig::default());
        lsh.insert(0, &[]);
        let cands = lsh.candidates(&[]);
        assert_eq!(cands, vec![0]);
        // an empty query does not match non-empty items
        lsh.insert(1, &features("abc"));
        let cands = lsh.candidates(&[]);
        assert!(!cands.contains(&1));
    }

    #[test]
    fn signature_is_deterministic() {
        let lsh = MinHashLsh::new(LshConfig { bands: 4, rows: 4, seed: 9 });
        assert_eq!(lsh.signature(&[1, 2, 3]), lsh.signature(&[3, 2, 1]));
    }
}
