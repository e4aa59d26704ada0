//! Alias generation rules that mirror how real KG aliases form.
//!
//! The paper's semantic lookup relies on alias families like
//! (GERMANY, DEUTSCHLAND) — an unrelated "translated" name — and
//! (EUROPEAN UNION, EU) — an abbreviation. Each rule below creates one
//! alias family; the synthetic KG attaches a sampled subset to every entity.

use crate::names::{capitalize, NameForge, NameKind};
use emblookup_text::tokenize::initialism;
use rand::seq::SliceRandom;
use rand::Rng;

/// Alias formation rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AliasRule {
    /// Initialism of a multi-word label ("European Union" → "EU").
    Initialism,
    /// Formal long form ("Germany" → "Federal Republic of Germany").
    FormalLongForm,
    /// Pseudo-translation: an independently generated name with no
    /// syntactic relationship to the label (Germany/Deutschland analogue).
    Translation,
    /// Historical or archaic variant of the label's stem.
    Historical,
    /// Short form: the most distinctive single token of the label.
    ShortForm,
    /// Person nickname derived from the first name ("Mira" → "Miri").
    Nickname,
}

impl AliasRule {
    /// Every rule, in a fixed order.
    pub const ALL: [AliasRule; 6] = [
        AliasRule::Initialism,
        AliasRule::FormalLongForm,
        AliasRule::Translation,
        AliasRule::Historical,
        AliasRule::ShortForm,
        AliasRule::Nickname,
    ];
}

const FORMAL_COUNTRY: &[&str] = &["Federal Republic of", "Kingdom of", "Republic of", "United States of"];
const FORMAL_CITY: &[&str] = &["City of", "Free City of", "Greater"];
const FORMAL_ORG: &[&str] = &["The", "International"];
const HISTORICAL_SUFFIX: &[(&str, &str)] = &[
    ("ia", "ium"),
    ("land", "lund"),
    ("burg", "borg"),
    ("ton", "tun"),
    ("stadt", "stat"),
    ("ville", "villa"),
];

/// Applies one alias rule to `label`.
///
/// Returns `None` when the rule does not apply (e.g. an initialism of a
/// single-word label), so the caller can fall through to another rule.
/// `forge`/`rng` are only used by [`AliasRule::Translation`].
pub(crate) fn apply_rule<R: Rng + ?Sized>(
    rule: AliasRule,
    label: &str,
    kind: NameKind,
    forge: &mut NameForge,
    rng: &mut R,
) -> Option<String> {
    match rule {
        AliasRule::Initialism => {
            let init = initialism(label)?;
            (init.len() >= 2).then_some(init)
        }
        AliasRule::FormalLongForm => {
            let prefix = match kind {
                NameKind::Country => FORMAL_COUNTRY.choose(rng)?,
                NameKind::City => FORMAL_CITY.choose(rng)?,
                NameKind::Organization => FORMAL_ORG.choose(rng)?,
                _ => return None,
            };
            Some(format!("{prefix} {label}"))
        }
        AliasRule::Translation => {
            // A fresh unrelated name of the same kind stands in for a
            // foreign-language label; only the training corpus ties it to
            // the entity, exactly as with Germany/Deutschland.
            Some(forge.next(kind, rng))
        }
        AliasRule::Historical => {
            let lower = label.to_lowercase();
            for &(suffix, replacement) in HISTORICAL_SUFFIX {
                if let Some(stem) = lower.strip_suffix(suffix) {
                    return Some(capitalize(&format!("{stem}{replacement}")));
                }
            }
            None
        }
        AliasRule::ShortForm => {
            let tokens: Vec<&str> = label.split_whitespace().collect();
            if tokens.len() < 2 {
                return None;
            }
            // longest token is usually the distinctive one ("Veldor
            // Industries" → "Veldor", "The Silent Harbor" → "Harbor")
            tokens
                .iter()
                .filter(|t| t.len() > 3)
                .max_by_key(|t| t.len())
                .map(|t| capitalize(t))
        }
        AliasRule::Nickname => {
            if kind != NameKind::Person {
                return None;
            }
            let first = label.split_whitespace().next()?;
            if first.len() < 4 {
                return None;
            }
            let stem: String = first.chars().take(first.len() - 1).collect();
            Some(format!("{stem}i"))
        }
    }
}

/// Generates up to `budget` aliases for `label` by cycling through the rules
/// in randomized order, skipping rules that do not apply and deduplicating.
pub(crate) fn generate_aliases<R: Rng + ?Sized>(
    label: &str,
    kind: NameKind,
    budget: usize,
    forge: &mut NameForge,
    rng: &mut R,
) -> Vec<String> {
    let mut rules = AliasRule::ALL.to_vec();
    rules.shuffle(rng);
    let mut out: Vec<String> = Vec::new();
    // Translation can apply repeatedly (several "languages"); the others
    // are single-shot. Loop rules until the budget is met or exhausted.
    for &rule in &rules {
        if out.len() >= budget {
            break;
        }
        if let Some(alias) = apply_rule(rule, label, kind, forge, rng) {
            if alias != label && !out.contains(&alias) {
                out.push(alias);
            }
        }
    }
    while out.len() < budget {
        let alias = forge.next(kind, rng);
        if alias != label && !out.contains(&alias) {
            out.push(alias);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> (NameForge, StdRng) {
        (NameForge::new(), StdRng::seed_from_u64(11))
    }

    #[test]
    fn initialism_rule() {
        let (mut f, mut r) = ctx();
        let a = apply_rule(
            AliasRule::Initialism,
            "European Union",
            NameKind::Organization,
            &mut f,
            &mut r,
        );
        assert_eq!(a, Some("EU".to_string()));
        assert_eq!(
            apply_rule(AliasRule::Initialism, "Germany", NameKind::Country, &mut f, &mut r),
            None
        );
    }

    #[test]
    fn formal_long_form_applies_to_places() {
        let (mut f, mut r) = ctx();
        let a = apply_rule(
            AliasRule::FormalLongForm,
            "Veldoria",
            NameKind::Country,
            &mut f,
            &mut r,
        )
        .unwrap();
        assert!(a.ends_with("Veldoria"), "{a}");
        assert!(a.len() > "Veldoria".len());
        assert_eq!(
            apply_rule(AliasRule::FormalLongForm, "Mira Kalden", NameKind::Person, &mut f, &mut r),
            None
        );
    }

    #[test]
    fn translation_is_unrelated() {
        let (mut f, mut r) = ctx();
        let a = apply_rule(
            AliasRule::Translation,
            "Veldoria",
            NameKind::Country,
            &mut f,
            &mut r,
        )
        .unwrap();
        assert_ne!(a, "Veldoria");
    }

    #[test]
    fn historical_rewrites_suffix() {
        let (mut f, mut r) = ctx();
        let a = apply_rule(
            AliasRule::Historical,
            "Veldoria",
            NameKind::Country,
            &mut f,
            &mut r,
        );
        assert_eq!(a, Some("Veldorium".to_string()));
    }

    #[test]
    fn nickname_only_for_persons() {
        let (mut f, mut r) = ctx();
        let a = apply_rule(
            AliasRule::Nickname,
            "Mirana Kalden",
            NameKind::Person,
            &mut f,
            &mut r,
        );
        assert_eq!(a, Some("Mirani".to_string()));
        assert_eq!(
            apply_rule(AliasRule::Nickname, "Veldoria", NameKind::Country, &mut f, &mut r),
            None
        );
    }

    #[test]
    fn short_form_picks_distinctive_token() {
        let (mut f, mut r) = ctx();
        let a = apply_rule(
            AliasRule::ShortForm,
            "Veldor Industries",
            NameKind::Organization,
            &mut f,
            &mut r,
        );
        assert_eq!(a, Some("Industries".to_string()));
    }

    #[test]
    fn generate_aliases_meets_budget_and_dedups() {
        let (mut f, mut r) = ctx();
        let aliases = generate_aliases("Veldoria", NameKind::Country, 5, &mut f, &mut r);
        assert_eq!(aliases.len(), 5);
        let mut unique = aliases.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 5);
        assert!(!aliases.contains(&"Veldoria".to_string()));
    }

    #[test]
    fn zero_budget_gives_nothing() {
        let (mut f, mut r) = ctx();
        assert!(generate_aliases("Veldoria", NameKind::Country, 0, &mut f, &mut r).is_empty());
    }
}
