//! Deterministic synthetic name generation.
//!
//! The reproduction cannot ship Wikidata/DBPedia dumps, so entity labels are
//! forged from syllable pools, per entity category, from a seeded RNG. The
//! generator guarantees global uniqueness unless ambiguity is explicitly
//! requested by the KG builder (some real entities *do* share labels, e.g.
//! the many cities called Berlin).

use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// Entity categories with distinct naming conventions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NameKind {
    /// Countries ("Veldoria", "Karenland").
    Country,
    /// Cities and towns ("Brenburg", "Ostaville").
    City,
    /// People ("Mira Kalden").
    Person,
    /// Organizations ("Veldor Industries").
    Organization,
    /// Creative works ("The Silent Harbor").
    Film,
    /// Rivers ("Taren River").
    River,
}

const ONSETS: &[&str] = &[
    "b", "br", "c", "d", "dr", "f", "g", "gr", "h", "j", "k", "kal", "l", "m", "mar", "n", "p",
    "r", "s", "st", "t", "tr", "v", "vel", "w", "z",
];
const VOWELS: &[&str] = &["a", "e", "i", "o", "u", "ae", "ia", "ei", "ou"];
const CODAS: &[&str] = &["n", "r", "l", "s", "th", "nd", "rk", "m", "st", "", ""];

const COUNTRY_SUFFIX: &[&str] = &["ia", "land", "stan", "onia", "ova", "mark"];
const CITY_SUFFIX: &[&str] = &[
    "burg", "ville", "ton", "stadt", "ford", "haven", "field", "port", "mouth", "grad",
];
const ORG_SUFFIX: &[&str] = &[
    "industries", "group", "corporation", "labs", "systems", "holdings", "institute", "works",
];
const FILM_ADJ: &[&str] = &[
    "silent", "crimson", "lost", "final", "hidden", "golden", "broken", "distant", "burning",
    "frozen",
];
const FILM_NOUN: &[&str] = &[
    "harbor", "empire", "garden", "voyage", "kingdom", "horizon", "legacy", "river", "castle",
    "shadow",
];
const SURNAME_SUFFIX: &[&str] = &["son", "sen", "man", "er", "ov", "ski", "ard", "well"];

/// Uniform pick from one of the const syllable/suffix tables above. The
/// tables are non-empty by construction; an empty slice degrades to `""`
/// instead of panicking.
fn pick<'a, R: Rng + ?Sized>(rng: &mut R, table: &'a [&'a str]) -> &'a str {
    table.choose(rng).copied().unwrap_or("")
}

/// Seedable unique-name factory.
///
/// Every `next_*` call draws from the supplied RNG; the forge remembers all
/// names it handed out and retries (appending more syllables) on collision,
/// so two calls never return the same string.
#[derive(Debug, Default)]
pub struct NameForge {
    used: HashSet<String>,
}

impl NameForge {
    /// Creates an empty forge.
    pub fn new() -> Self {
        Self::default()
    }

    fn syllable<R: Rng + ?Sized>(rng: &mut R) -> String {
        let mut s = String::new();
        s.push_str(pick(rng, ONSETS));
        s.push_str(pick(rng, VOWELS));
        s.push_str(pick(rng, CODAS));
        s
    }

    fn stem<R: Rng + ?Sized>(rng: &mut R, syllables: usize) -> String {
        let mut s = String::new();
        for _ in 0..syllables {
            s.push_str(&Self::syllable(rng));
        }
        s
    }

    /// Generates a fresh, globally-unique name of the given kind.
    pub fn next<R: Rng + ?Sized>(&mut self, kind: NameKind, rng: &mut R) -> String {
        let mut attempt = 0usize;
        loop {
            let extra = attempt / 3; // widen the space if collisions persist
            let candidate = Self::raw(kind, rng, extra);
            if self.used.insert(candidate.clone()) {
                return candidate;
            }
            attempt += 1;
        }
    }

    fn raw<R: Rng + ?Sized>(kind: NameKind, rng: &mut R, extra_syllables: usize) -> String {
        match kind {
            NameKind::Country => {
                let stem = Self::stem(rng, 2 + extra_syllables);
                capitalize(&format!("{stem}{}", pick(rng, COUNTRY_SUFFIX)))
            }
            NameKind::City => {
                let stem = Self::stem(rng, 2 + extra_syllables);
                capitalize(&format!("{stem}{}", pick(rng, CITY_SUFFIX)))
            }
            NameKind::Person => {
                let first = capitalize(&Self::stem(rng, 1 + extra_syllables / 2));
                let last = capitalize(&format!(
                    "{}{}",
                    Self::stem(rng, 2 + extra_syllables - extra_syllables / 2),
                    pick(rng, SURNAME_SUFFIX)
                ));
                format!("{first} {last}")
            }
            NameKind::Organization => {
                let stem = capitalize(&Self::stem(rng, 2 + extra_syllables));
                format!("{stem} {}", capitalize(pick(rng, ORG_SUFFIX)))
            }
            NameKind::Film => {
                if extra_syllables == 0 {
                    format!(
                        "The {} {}",
                        capitalize(pick(rng, FILM_ADJ)),
                        capitalize(pick(rng, FILM_NOUN))
                    )
                } else {
                    format!(
                        "The {} {} of {}",
                        capitalize(pick(rng, FILM_ADJ)),
                        capitalize(pick(rng, FILM_NOUN)),
                        capitalize(&Self::stem(rng, extra_syllables))
                    )
                }
            }
            NameKind::River => {
                let stem = capitalize(&Self::stem(rng, 1 + extra_syllables));
                format!("{stem} River")
            }
        }
    }

    /// Number of distinct names handed out so far.
    pub fn issued(&self) -> usize {
        self.used.len()
    }
}

/// Uppercases the first ASCII letter of each word.
pub fn capitalize(s: &str) -> String {
    s.split(' ')
        .map(|w| {
            let mut c = w.chars();
            match c.next() {
                Some(first) => first.to_ascii_uppercase().to_string() + c.as_str(),
                None => String::new(),
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn names_are_unique() {
        let mut forge = NameForge::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = HashSet::new();
        for _ in 0..2000 {
            let n = forge.next(NameKind::City, &mut rng);
            assert!(seen.insert(n.clone()), "duplicate {n}");
        }
        assert_eq!(forge.issued(), 2000);
    }

    #[test]
    fn deterministic_given_seed() {
        let gen = |seed| {
            let mut forge = NameForge::new();
            let mut rng = StdRng::seed_from_u64(seed);
            (0..10)
                .map(|_| forge.next(NameKind::Country, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(gen(42), gen(42));
        assert_ne!(gen(42), gen(43));
    }

    #[test]
    fn person_names_have_two_tokens() {
        let mut forge = NameForge::new();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let n = forge.next(NameKind::Person, &mut rng);
            assert_eq!(n.split(' ').count(), 2, "{n}");
        }
    }

    #[test]
    fn film_names_are_title_style() {
        let mut forge = NameForge::new();
        let mut rng = StdRng::seed_from_u64(3);
        let n = forge.next(NameKind::Film, &mut rng);
        assert!(n.starts_with("The "), "{n}");
    }

    #[test]
    fn capitalize_words() {
        assert_eq!(capitalize("hello world"), "Hello World");
        assert_eq!(capitalize(""), "");
    }

    #[test]
    fn country_names_use_suffixes() {
        let mut forge = NameForge::new();
        let mut rng = StdRng::seed_from_u64(4);
        let n = forge.next(NameKind::Country, &mut rng).to_lowercase();
        assert!(
            COUNTRY_SUFFIX.iter().any(|s| n.ends_with(s)),
            "{n} has no country suffix"
        );
    }
}
