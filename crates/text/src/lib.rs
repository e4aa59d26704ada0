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

// Property tests need the external `proptest` crate, unavailable in
// offline builds; enable with `--features proptest-tests` when vendored.
#[cfg(all(test, feature = "proptest-tests"))]
mod proptests {
    use crate::distance::*;
    use proptest::prelude::*;

    fn small_string() -> impl Strategy<Value = String> {
        proptest::string::string_regex("[a-z ]{0,12}").unwrap()
    }

    proptest! {
        #[test]
        fn levenshtein_symmetric(a in small_string(), b in small_string()) {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        }

        #[test]
        fn levenshtein_identity(a in small_string()) {
            prop_assert_eq!(levenshtein(&a, &a), 0);
        }

        #[test]
        fn levenshtein_triangle(a in small_string(), b in small_string(), c in small_string()) {
            let ab = levenshtein(&a, &b);
            let bc = levenshtein(&b, &c);
            let ac = levenshtein(&a, &c);
            prop_assert!(ac <= ab + bc, "triangle violated: {} > {} + {}", ac, ab, bc);
        }

        #[test]
        fn levenshtein_length_lower_bound(a in small_string(), b in small_string()) {
            let d = levenshtein(&a, &b);
            prop_assert!(d >= a.chars().count().abs_diff(b.chars().count()));
        }

        #[test]
        fn damerau_never_exceeds_levenshtein(a in small_string(), b in small_string()) {
            prop_assert!(damerau_levenshtein(&a, &b) <= levenshtein(&a, &b));
        }

        #[test]
        fn bounded_agrees_with_exact(a in small_string(), b in small_string(), max in 0usize..6) {
            let exact = levenshtein(&a, &b);
            match levenshtein_bounded(&a, &b, max) {
                Some(d) => prop_assert_eq!(d, exact),
                None => prop_assert!(exact > max),
            }
        }

        #[test]
        fn jaccard_in_unit_interval(a in small_string(), b in small_string()) {
            let j = qgram_jaccard(&a, &b, 3);
            prop_assert!((0.0..=1.0).contains(&j));
        }

        #[test]
        fn jaro_winkler_in_unit_interval(a in small_string(), b in small_string()) {
            let j = jaro_winkler(&a, &b);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&j));
        }

        #[test]
        fn fuzz_ratio_at_most_100(a in small_string(), b in small_string()) {
            prop_assert!(fuzz_ratio(&a, &b) <= 100);
            prop_assert!(token_sort_ratio(&a, &b) <= 100);
            prop_assert!(token_set_ratio(&a, &b) <= 100);
        }
    }

    mod noise_props {
        use crate::distance::damerau_levenshtein;
        use crate::noise::{apply_noise, NoiseKind};
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        proptest! {
            #[test]
            fn single_typo_is_one_edit(
                s in proptest::string::string_regex("[a-z]{2,10}").unwrap(),
                seed in 0u64..1000,
                kind_idx in 0usize..NoiseKind::TYPOS.len(),
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let kind = NoiseKind::TYPOS[kind_idx];
                let noisy = apply_noise(&s, kind, &mut rng);
                prop_assert!(damerau_levenshtein(&s, &noisy) <= 1);
            }

            #[test]
            fn encoder_one_hot_columns(
                s in proptest::string::string_regex("[a-z0-9 ]{0,20}").unwrap(),
            ) {
                let enc = crate::OneHotEncoder::new(crate::Alphabet::default_lookup(), 16);
                let m = enc.encode(&s);
                let (rows, cols) = enc.shape();
                // every column has at most one 1, and the number of set
                // columns equals min(len, 16)
                let mut set_cols = 0;
                for j in 0..cols {
                    let ones: usize = (0..rows).map(|i| (m[i * cols + j] == 1.0) as usize).sum();
                    prop_assert!(ones <= 1);
                    set_cols += ones;
                }
                prop_assert_eq!(set_cols, s.chars().count().min(16));
            }
        }
    }
}

// Property tests need the external `proptest` crate, unavailable in
// offline builds; enable with `--features proptest-tests` when vendored.
#[cfg(all(test, feature = "proptest-tests"))]
mod tokenize_proptests {
    use crate::tokenize::{fasttext_ngrams, initialism, normalize, words};
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn normalize_is_idempotent(s in ".{0,40}") {
            let once = normalize(&s);
            prop_assert_eq!(normalize(&once), once);
        }

        #[test]
        fn words_are_lowercase_alnum(s in ".{0,40}") {
            for w in words(&s) {
                prop_assert!(!w.is_empty());
                prop_assert!(w.chars().all(|c| c.is_alphanumeric()));
                prop_assert_eq!(w.to_ascii_lowercase(), w.clone());
            }
        }

        #[test]
        fn ngrams_never_empty_for_nonempty_token(t in "[a-z]{1,15}") {
            let g = fasttext_ngrams(&t, 3, 6);
            prop_assert!(!g.is_empty());
            // the wrapped whole token is always present
            let whole = format!("<{}>", t);
            prop_assert!(g.contains(&whole));
        }

        #[test]
        fn initialism_length_matches_token_count(s in "[a-z]{1,8}( [a-z]{1,8}){1,4}") {
            let tokens = words(&s).len();
            let init = initialism(&s).unwrap();
            prop_assert_eq!(init.chars().count(), tokens);
        }
    }
}
