//! # emblookup-text
//!
//! String machinery for the EmbLookup reproduction: the paper's one-hot
//! character encoding, the edit-distance family used by the baseline lookup
//! services, fastText-style subword extraction, and the noise-injection
//! error model of the evaluation section.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alphabet;
pub mod distance;
pub mod noise;
pub mod tokenize;

pub use alphabet::{Alphabet, OneHotEncoder};
pub use noise::{apply_noise, NoiseInjector, NoiseKind};

/// Seeded property tests: case `seed` draws its inputs from
/// `StdRng::seed_from_u64(seed)` and names the seed when it fails.
#[cfg(test)]
mod properties {
    use crate::distance::*;
    use crate::noise::{apply_noise, NoiseKind};
    use crate::tokenize::{fasttext_ngrams, initialism, normalize, words};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::ops::RangeInclusive;

    const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";

    fn cases() -> impl Iterator<Item = (u64, StdRng)> {
        (0..64).map(|seed| (seed, StdRng::seed_from_u64(seed)))
    }

    /// `len` characters drawn uniformly from `alphabet`.
    fn string_of(rng: &mut StdRng, alphabet: &str, len: RangeInclusive<usize>) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        (0..rng.gen_range(len)).map(|_| chars[rng.gen_range(0..chars.len())]).collect()
    }

    /// `[a-z ]{0,12}`.
    fn small_string(rng: &mut StdRng) -> String {
        string_of(rng, "abcdefghijklmnopqrstuvwxyz ", 0..=12)
    }

    /// Up to 40 characters, half printable ASCII and half anything in the
    /// basic multilingual plane (other whitespace, accents, CJK, symbols).
    fn any_string(rng: &mut StdRng) -> String {
        (0..rng.gen_range(0..=40))
            .filter_map(|_| {
                if rng.gen_bool(0.5) {
                    Some(char::from(rng.gen_range(0x20u8..0x7f)))
                } else {
                    char::from_u32(rng.gen_range(0..0x1_0000))
                }
            })
            .collect()
    }

    #[test]
    fn levenshtein_symmetric() {
        for (seed, mut rng) in cases() {
            let (a, b) = (small_string(&mut rng), small_string(&mut rng));
            assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a), "seed {seed}: {a:?} {b:?}");
        }
    }

    #[test]
    fn levenshtein_identity() {
        for (seed, mut rng) in cases() {
            let a = small_string(&mut rng);
            assert_eq!(levenshtein(&a, &a), 0, "seed {seed}: {a:?}");
        }
    }

    #[test]
    fn levenshtein_triangle() {
        for (seed, mut rng) in cases() {
            let [a, b, c] = [(); 3].map(|()| small_string(&mut rng));
            let ab = levenshtein(&a, &b);
            let bc = levenshtein(&b, &c);
            let ac = levenshtein(&a, &c);
            assert!(ac <= ab + bc, "seed {seed}: triangle violated: {ac} > {ab} + {bc}");
        }
    }

    #[test]
    fn levenshtein_length_lower_bound() {
        for (seed, mut rng) in cases() {
            let (a, b) = (small_string(&mut rng), small_string(&mut rng));
            let d = levenshtein(&a, &b);
            assert!(d >= a.chars().count().abs_diff(b.chars().count()), "seed {seed}: {a:?} {b:?}");
        }
    }

    #[test]
    fn damerau_never_exceeds_levenshtein() {
        for (seed, mut rng) in cases() {
            let (a, b) = (small_string(&mut rng), small_string(&mut rng));
            assert!(damerau_levenshtein(&a, &b) <= levenshtein(&a, &b), "seed {seed}: {a:?} {b:?}");
        }
    }

    #[test]
    fn bounded_agrees_with_exact() {
        for (seed, mut rng) in cases() {
            let (a, b) = (small_string(&mut rng), small_string(&mut rng));
            let max = rng.gen_range(0..6);
            let exact = levenshtein(&a, &b);
            match levenshtein_bounded(&a, &b, max) {
                Some(d) => assert_eq!(d, exact, "seed {seed}: {a:?} {b:?} max {max}"),
                None => assert!(exact > max, "seed {seed}: {a:?} {b:?} max {max}"),
            }
        }
    }

    #[test]
    fn jaccard_in_unit_interval() {
        for (seed, mut rng) in cases() {
            let (a, b) = (small_string(&mut rng), small_string(&mut rng));
            let j = qgram_jaccard(&a, &b, 3);
            assert!((0.0..=1.0).contains(&j), "seed {seed}: {a:?} {b:?} -> {j}");
        }
    }

    #[test]
    fn fuzz_ratio_at_most_100() {
        for (seed, mut rng) in cases() {
            let (a, b) = (small_string(&mut rng), small_string(&mut rng));
            assert!(fuzz_ratio(&a, &b) <= 100, "seed {seed}: {a:?} {b:?}");
            assert!(token_set_ratio(&a, &b) <= 100, "seed {seed}: {a:?} {b:?}");
        }
    }

    #[test]
    fn single_typo_is_one_edit() {
        for (seed, mut rng) in cases() {
            let s = string_of(&mut rng, LOWER, 2..=10);
            let kind = NoiseKind::TYPOS[rng.gen_range(0..NoiseKind::TYPOS.len())];
            let noisy = apply_noise(&s, kind, &mut rng);
            assert!(
                damerau_levenshtein(&s, &noisy) <= 1,
                "seed {seed}: {kind:?} turned {s:?} into {noisy:?}"
            );
        }
    }

    #[test]
    fn encoder_one_hot_columns() {
        let enc = crate::OneHotEncoder::new(crate::Alphabet::default_lookup(), 16);
        let (rows, cols) = enc.shape();
        for (seed, mut rng) in cases() {
            let s = string_of(&mut rng, "abcdefghijklmnopqrstuvwxyz0123456789 ", 0..=20);
            let m = enc.encode(&s);
            // every column has at most one 1, and the number of set
            // columns equals min(len, 16)
            let mut set_cols = 0;
            for j in 0..cols {
                let ones = (0..rows).filter(|i| m[i * cols + j] == 1.0).count();
                assert!(ones <= 1, "seed {seed}: column {j} of {s:?} has {ones} ones");
                set_cols += ones;
            }
            assert_eq!(set_cols, s.chars().count().min(16), "seed {seed}: {s:?}");
        }
    }

    #[test]
    fn normalize_is_idempotent() {
        for (seed, mut rng) in cases() {
            let once = normalize(&any_string(&mut rng));
            assert_eq!(normalize(&once), once, "seed {seed}");
        }
    }

    #[test]
    fn words_are_lowercase_alnum() {
        for (seed, mut rng) in cases() {
            let s = any_string(&mut rng);
            for w in words(&s) {
                assert!(!w.is_empty(), "seed {seed}: {s:?}");
                assert!(w.chars().all(char::is_alphanumeric), "seed {seed}: {w:?} of {s:?}");
                assert_eq!(w.to_ascii_lowercase(), w, "seed {seed}: {s:?}");
            }
        }
    }

    #[test]
    fn ngrams_never_empty_for_nonempty_token() {
        for (seed, mut rng) in cases() {
            let t = string_of(&mut rng, LOWER, 1..=15);
            let g = fasttext_ngrams(&t, 3, 6);
            // the wrapped whole token is always present
            assert!(g.contains(&format!("<{t}>")), "seed {seed}: {t:?} -> {g:?}");
        }
    }

    #[test]
    fn initialism_length_matches_token_count() {
        for (seed, mut rng) in cases() {
            // `[a-z]{1,8}( [a-z]{1,8}){1,4}`: two to five words
            let s = (0..rng.gen_range(2..=5))
                .map(|_| string_of(&mut rng, LOWER, 1..=8))
                .collect::<Vec<_>>()
                .join(" ");
            let init = initialism(&s).unwrap_or_else(|| panic!("seed {seed}: none for {s:?}"));
            assert_eq!(init.chars().count(), words(&s).len(), "seed {seed}: {s:?}");
        }
    }
}
