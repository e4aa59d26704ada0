//! Tokenization helpers shared by the embedding models and baselines.

/// Splits a string into lowercase word tokens on whitespace and punctuation.
///
/// Digits are kept inside tokens ("route 66" → `["route", "66"]`), matching
/// how entity labels are tokenized for word-level embeddings.
pub fn words(s: &str) -> Vec<String> {
    s.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_ascii_lowercase())
        .collect()
}

/// Normalizes a string for lookup: lowercase, collapse whitespace runs,
/// strip leading/trailing whitespace.
pub fn normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_space = true;
    for c in s.chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            out.push(c.to_ascii_lowercase());
            last_space = false;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Character n-grams of a token wrapped in `<` / `>` boundary markers, as in
/// fastText. Includes the full wrapped token itself.
pub fn fasttext_ngrams(token: &str, min_n: usize, max_n: usize) -> Vec<String> {
    assert!(min_n > 0 && min_n <= max_n, "invalid n-gram range {min_n}..={max_n}");
    let wrapped: Vec<char> = std::iter::once('<')
        .chain(token.chars())
        .chain(std::iter::once('>'))
        .collect();
    let mut out = Vec::new();
    for n in min_n..=max_n {
        if wrapped.len() < n {
            break;
        }
        for w in wrapped.windows(n) {
            out.push(w.iter().collect());
        }
    }
    // the whole wrapped word is always its own feature; the windows above
    // already produced it exactly when its length is one of the `n`
    if !(min_n..=max_n).contains(&wrapped.len()) {
        out.push(wrapped.iter().collect());
    }
    out
}

/// Builds the initialism of a multi-word string ("European Union" → "EU"),
/// or `None` for single-token strings.
pub fn initialism(s: &str) -> Option<String> {
    let tokens = words(s);
    if tokens.len() < 2 {
        return None;
    }
    Some(
        tokens
            .iter()
            .filter_map(|t| t.chars().next())
            .map(|c| c.to_ascii_uppercase())
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_splits_and_lowercases() {
        assert_eq!(words("East Berlin"), vec!["east", "berlin"]);
        assert_eq!(words("AT&T Corp."), vec!["at", "t", "corp"]);
        assert_eq!(words(""), Vec::<String>::new());
    }

    #[test]
    fn normalize_collapses_space() {
        assert_eq!(normalize("  East   BERLIN "), "east berlin");
        assert_eq!(normalize(""), "");
    }

    #[test]
    fn fasttext_ngrams_include_boundaries() {
        let g = fasttext_ngrams("ab", 2, 3);
        assert!(g.contains(&"<a".to_string()));
        assert!(g.contains(&"b>".to_string()));
        assert!(g.contains(&"<ab".to_string()));
        assert!(g.contains(&"<ab>".to_string())); // whole word
    }

    #[test]
    fn whole_word_feature_appears_exactly_once() {
        // wrapped lengths below, at both ends of, inside and above 3..=5
        for token in ["", "a", "ab", "abc", "abcd", "abcdefgh", "日本"] {
            let whole = format!("<{token}>");
            let g = fasttext_ngrams(token, 3, 5);
            assert_eq!(g.iter().filter(|x| **x == whole).count(), 1, "{token:?}: {g:?}");
        }
    }

    #[test]
    fn fasttext_ngrams_short_token() {
        let g = fasttext_ngrams("a", 3, 6);
        assert_eq!(g, vec!["<a>".to_string()]);
    }

    #[test]
    fn initialism_examples() {
        assert_eq!(initialism("European Union"), Some("EU".to_string()));
        assert_eq!(
            initialism("federal republic of germany"),
            Some("FROG".to_string())
        );
        assert_eq!(initialism("Germany"), None);
    }
}
