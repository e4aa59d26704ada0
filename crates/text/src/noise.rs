//! Noise injection mirroring the paper's error model (§IV-B):
//! "common misspellings such as dropping/inserting one or more letters,
//! transposing letters, swapping the tokens, abbreviations, and so on."

use crate::tokenize::{initialism, words};
use rand::seq::SliceRandom;
use rand::Rng;

/// A single noise family that can be applied to an entity mention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NoiseKind {
    /// Drops one random character.
    DropChar,
    /// Inserts one random lowercase letter at a random position.
    InsertChar,
    /// Substitutes one random character by a random lowercase letter.
    SubstituteChar,
    /// Transposes one random adjacent character pair.
    TransposeChars,
    /// Duplicates one random character ("berlin" → "berrlin").
    DuplicateChar,
    /// Swaps the order of two random tokens ("bill gates" → "gates bill").
    SwapTokens,
    /// Replaces the string by its initialism ("european union" → "EU").
    Abbreviate,
    /// Drops one random token from a multi-token mention.
    DropToken,
}

impl NoiseKind {
    /// Every supported noise family, in a fixed order.
    pub const ALL: [NoiseKind; 8] = [
        NoiseKind::DropChar,
        NoiseKind::InsertChar,
        NoiseKind::SubstituteChar,
        NoiseKind::TransposeChars,
        NoiseKind::DuplicateChar,
        NoiseKind::SwapTokens,
        NoiseKind::Abbreviate,
        NoiseKind::DropToken,
    ];

    /// The misspelling-only subset (no token-level or abbreviation noise),
    /// used for syntactic triplet mining.
    pub const TYPOS: [NoiseKind; 5] = [
        NoiseKind::DropChar,
        NoiseKind::InsertChar,
        NoiseKind::SubstituteChar,
        NoiseKind::TransposeChars,
        NoiseKind::DuplicateChar,
    ];
}

/// Applies noise families to strings using a caller-supplied RNG so that
/// experiments are reproducible from a seed.
#[derive(Debug, Clone)]
pub struct NoiseInjector {
    /// Families to sample from when [`NoiseInjector::corrupt`] is called.
    pub kinds: Vec<NoiseKind>,
}

impl NoiseInjector {
    /// Injector over every noise family.
    pub(crate) fn all() -> Self {
        NoiseInjector { kinds: NoiseKind::ALL.to_vec() }
    }

    /// Injector over misspellings only.
    pub fn typos() -> Self {
        NoiseInjector { kinds: NoiseKind::TYPOS.to_vec() }
    }

    /// Injector over an explicit family list.
    ///
    /// # Panics
    /// Panics on an empty list.
    pub fn with_kinds(kinds: Vec<NoiseKind>) -> Self {
        assert!(!kinds.is_empty(), "noise injector needs at least one kind");
        NoiseInjector { kinds }
    }

    /// Applies one randomly-chosen noise family.
    ///
    /// Families that do not apply (e.g. token swap on a single token) fall
    /// back to a character substitution so the output always differs from a
    /// non-trivial input. Empty and single-char inputs are returned
    /// unchanged when nothing sensible can be done.
    pub fn corrupt<R: Rng + ?Sized>(&self, s: &str, rng: &mut R) -> String {
        let Some(&kind) = self.kinds.choose(rng) else { return s.to_string() };
        apply_noise(s, kind, rng)
    }

    /// Applies `n` successive random corruptions.
    pub fn corrupt_n<R: Rng + ?Sized>(&self, s: &str, n: usize, rng: &mut R) -> String {
        let mut out = s.to_string();
        for _ in 0..n {
            out = self.corrupt(&out, rng);
        }
        out
    }
}

impl Default for NoiseInjector {
    fn default() -> Self {
        Self::all()
    }
}

/// Applies one specific noise family to `s`.
///
/// Returns `s` unchanged when the transformation cannot apply (e.g. dropping
/// a character from an empty string).
pub fn apply_noise<R: Rng + ?Sized>(s: &str, kind: NoiseKind, rng: &mut R) -> String {
    let chars: Vec<char> = s.chars().collect();
    match kind {
        NoiseKind::DropChar => {
            if chars.len() < 2 {
                return s.to_string();
            }
            let i = rng.gen_range(0..chars.len());
            let mut out = chars.clone();
            out.remove(i);
            out.into_iter().collect()
        }
        NoiseKind::InsertChar => {
            let i = rng.gen_range(0..=chars.len());
            let c = random_letter(rng);
            let mut out = chars.clone();
            out.insert(i, c);
            out.into_iter().collect()
        }
        NoiseKind::SubstituteChar => {
            if chars.is_empty() {
                return s.to_string();
            }
            let i = rng.gen_range(0..chars.len());
            let mut out = chars.clone();
            let mut c = random_letter(rng);
            // make sure the substitution actually changes the character
            for _ in 0..4 {
                if c != out[i] {
                    break;
                }
                c = random_letter(rng);
            }
            out[i] = c;
            out.into_iter().collect()
        }
        NoiseKind::TransposeChars => {
            if chars.len() < 2 {
                return s.to_string();
            }
            let i = rng.gen_range(0..chars.len() - 1);
            let mut out = chars.clone();
            out.swap(i, i + 1);
            out.into_iter().collect()
        }
        NoiseKind::DuplicateChar => {
            if chars.is_empty() {
                return s.to_string();
            }
            let i = rng.gen_range(0..chars.len());
            let mut out = chars.clone();
            out.insert(i, chars[i]);
            out.into_iter().collect()
        }
        NoiseKind::SwapTokens => {
            let mut tokens = words(s);
            if tokens.len() < 2 {
                return apply_noise(s, NoiseKind::SubstituteChar, rng);
            }
            let i = rng.gen_range(0..tokens.len());
            let mut j = rng.gen_range(0..tokens.len());
            if i == j {
                j = (j + 1) % tokens.len();
            }
            tokens.swap(i, j);
            tokens.join(" ")
        }
        NoiseKind::Abbreviate => match initialism(s) {
            Some(abbr) => abbr,
            None => apply_noise(s, NoiseKind::DropChar, rng),
        },
        NoiseKind::DropToken => {
            let mut tokens = words(s);
            if tokens.len() < 2 {
                return apply_noise(s, NoiseKind::DropChar, rng);
            }
            let i = rng.gen_range(0..tokens.len());
            tokens.remove(i);
            tokens.join(" ")
        }
    }
}

fn random_letter<R: Rng + ?Sized>(rng: &mut R) -> char {
    (b'a' + rng.gen_range(0..26u8)) as char
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    #[test]
    fn drop_char_shrinks_by_one() {
        let mut r = rng();
        let out = apply_noise("berlin", NoiseKind::DropChar, &mut r);
        assert_eq!(out.chars().count(), 5);
    }

    #[test]
    fn insert_char_grows_by_one() {
        let mut r = rng();
        let out = apply_noise("berlin", NoiseKind::InsertChar, &mut r);
        assert_eq!(out.chars().count(), 7);
    }

    #[test]
    fn transpose_keeps_multiset() {
        let mut r = rng();
        let out = apply_noise("berlin", NoiseKind::TransposeChars, &mut r);
        let mut a: Vec<char> = "berlin".chars().collect();
        let mut b: Vec<char> = out.chars().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn abbreviate_multiword() {
        let mut r = rng();
        let out = apply_noise("european union", NoiseKind::Abbreviate, &mut r);
        assert_eq!(out, "EU");
    }

    #[test]
    fn abbreviate_single_word_falls_back() {
        let mut r = rng();
        let out = apply_noise("germany", NoiseKind::Abbreviate, &mut r);
        assert_eq!(out.chars().count(), 6); // DropChar fallback
    }

    #[test]
    fn swap_tokens_reorders() {
        let mut r = rng();
        let out = apply_noise("bill gates", NoiseKind::SwapTokens, &mut r);
        assert_eq!(out, "gates bill");
    }

    #[test]
    fn drop_token_removes_one() {
        let mut r = rng();
        let out = apply_noise("federal republic of germany", NoiseKind::DropToken, &mut r);
        assert_eq!(out.split_whitespace().count(), 3);
    }

    #[test]
    fn empty_string_survives_everything() {
        let mut r = rng();
        for kind in NoiseKind::ALL {
            let out = apply_noise("", kind, &mut r);
            // insert may add one char; everything else must not panic
            assert!(out.chars().count() <= 1, "{kind:?} produced {out:?}");
        }
    }

    #[test]
    fn corrupt_usually_changes_string() {
        let mut r = rng();
        let injector = NoiseInjector::typos();
        let mut changed = 0;
        for _ in 0..50 {
            if injector.corrupt("germany", &mut r) != "germany" {
                changed += 1;
            }
        }
        assert!(changed > 40, "only {changed}/50 corruptions changed the string");
    }

    #[test]
    fn corrupt_n_applies_repeatedly() {
        let mut r = rng();
        let injector = NoiseInjector::typos();
        let out = injector.corrupt_n("germany", 3, &mut r);
        assert!(crate::distance::levenshtein("germany", &out) <= 3 + 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let injector = NoiseInjector::all();
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        assert_eq!(
            injector.corrupt("knowledge graph", &mut r1),
            injector.corrupt("knowledge graph", &mut r2)
        );
    }
}
