//! String distances and similarities used by the baseline lookup services
//! and by triplet-mining verification.

/// Levenshtein (edit) distance between two strings, by characters.
///
/// Uses the standard two-row dynamic program — O(|a|·|b|) time,
/// O(min(|a|,|b|)) space.
///
/// ```
/// use emblookup_text::distance::levenshtein;
/// assert_eq!(levenshtein("germany", "germoney"), 2);
/// ```
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let (short, long) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// Levenshtein distance with an early-exit bound: returns `None` when the
/// distance provably exceeds `max`. Much faster for candidate filtering.
pub fn levenshtein_bounded(a: &str, b: &str, max: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.len().abs_diff(b.len()) > max {
        return None;
    }
    let (short, long) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        let mut row_min = cur[0];
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
            row_min = row_min.min(cur[j + 1]);
        }
        if row_min > max {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let d = prev[short.len()];
    (d <= max).then_some(d)
}

/// Damerau–Levenshtein distance (restricted transpositions).
///
/// Counts adjacent transposition as one edit, matching the error model of
/// the paper's noise-injection experiments.
pub fn damerau_levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let (n, m) = (a.len(), b.len());
    if n == 0 {
        return m;
    }
    if m == 0 {
        return n;
    }
    let w = m + 1;
    let mut d = vec![0usize; (n + 1) * w];
    for i in 0..=n {
        d[i * w] = i;
    }
    for (j, cell) in d[..=m].iter_mut().enumerate() {
        *cell = j;
    }
    for i in 1..=n {
        for j in 1..=m {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let mut best = (d[(i - 1) * w + j] + 1)
                .min(d[i * w + j - 1] + 1)
                .min(d[(i - 1) * w + j - 1] + cost);
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                best = best.min(d[(i - 2) * w + j - 2] + 1);
            }
            d[i * w + j] = best;
        }
    }
    d[n * w + m]
}

/// Normalized Levenshtein similarity in `[0, 1]`; `1.0` means equal strings.
pub(crate) fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// Character q-grams of a string, padded with `#` on both sides so that
/// prefixes/suffixes get their own grams (classic q-gram similarity setup).
pub fn qgrams(s: &str, q: usize) -> Vec<String> {
    assert!(q > 0, "q must be positive");
    let padded: Vec<char> = std::iter::repeat_n('#', q - 1)
        .chain(s.chars())
        .chain(std::iter::repeat_n('#', q - 1))
        .collect();
    if padded.len() < q {
        return Vec::new();
    }
    padded.windows(q).map(|w| w.iter().collect()).collect()
}

/// Jaccard similarity of the q-gram sets of two strings, in `[0, 1]`.
pub fn qgram_jaccard(a: &str, b: &str, q: usize) -> f64 {
    use std::collections::BTreeSet;
    let sa: BTreeSet<String> = qgrams(a, q).into_iter().collect();
    let sb: BTreeSet<String> = qgrams(b, q).into_iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    let union = sa.len() + sb.len() - inter;
    inter as f64 / union as f64
}

/// FuzzyWuzzy-style "simple ratio": normalized Levenshtein similarity scaled
/// to 0–100 (the paper's FuzzyWuzzy baseline uses Levenshtein internally).
pub(crate) fn fuzz_ratio(a: &str, b: &str) -> u32 {
    (levenshtein_similarity(a, b) * 100.0).round() as u32
}

/// FuzzyWuzzy-style token-set ratio: compares the shared-token core against
/// each full token set and takes the best score; robust to extra tokens.
pub fn token_set_ratio(a: &str, b: &str) -> u32 {
    use std::collections::BTreeSet;
    let ta: BTreeSet<&str> = a.split_whitespace().collect();
    let tb: BTreeSet<&str> = b.split_whitespace().collect();
    let inter: Vec<&str> = ta.intersection(&tb).copied().collect();
    let join = |set: &BTreeSet<&str>| -> String {
        set.iter().copied().collect::<Vec<_>>().join(" ")
    };
    let core = inter.join(" ");
    let full_a = join(&ta);
    let full_b = join(&tb);
    let c_a = fuzz_ratio(&core, &full_a);
    let c_b = fuzz_ratio(&core, &full_b);
    let a_b = fuzz_ratio(&full_a, &full_b);
    c_a.max(c_b).max(a_b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_known_pairs() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("germany", "germoney"), 2);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn bounded_matches_exact_within_bound() {
        assert_eq!(levenshtein_bounded("kitten", "sitting", 3), Some(3));
        assert_eq!(levenshtein_bounded("kitten", "sitting", 2), None);
        assert_eq!(levenshtein_bounded("abc", "abcdefgh", 2), None); // length gap
    }

    #[test]
    fn damerau_counts_transposition_once() {
        assert_eq!(levenshtein("ab", "ba"), 2);
        assert_eq!(damerau_levenshtein("ab", "ba"), 1);
        assert_eq!(damerau_levenshtein("germany", "gremany"), 1);
    }

    #[test]
    fn similarity_bounds() {
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("a", "a"), 1.0);
        assert_eq!(levenshtein_similarity("a", "b"), 0.0);
    }

    #[test]
    fn qgrams_pad_prefix_and_suffix() {
        let g = qgrams("ab", 3);
        assert_eq!(g, vec!["##a", "#ab", "ab#", "b##"]);
    }

    #[test]
    fn qgram_jaccard_identical_is_one() {
        assert_eq!(qgram_jaccard("berlin", "berlin", 3), 1.0);
        assert!(qgram_jaccard("berlin", "bellin", 3) > 0.3);
        assert!(qgram_jaccard("berlin", "tokyo", 3) < 0.1);
    }

    #[test]
    fn token_set_tolerates_extra_tokens() {
        let r = token_set_ratio("barack obama", "president barack obama");
        assert_eq!(r, 100);
    }

    #[test]
    fn fuzz_ratio_range() {
        for (a, b) in [("a", "a"), ("a", "xyz"), ("hello", "hallo")] {
            let r = fuzz_ratio(a, b);
            assert!(r <= 100);
        }
    }
}
