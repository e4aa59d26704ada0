//! Alphabet handling and the one-hot string encoding of the paper (§III-B).
//!
//! A string `m` is encoded as a matrix of dimensions `|A| × L`: column `i`
//! holds the one-hot encoding of the `i`-th character; columns past the end
//! of the string stay zero.

use std::collections::BTreeMap;

/// Character set used for one-hot encoding.
///
/// Characters outside the alphabet map to a dedicated `<unk>` slot so that
/// queries containing stray symbols still encode instead of failing — the
/// paper's lookup must be robust to arbitrary dirty strings.
#[derive(Debug, Clone)]
pub struct Alphabet {
    chars: Vec<char>,
    index: BTreeMap<char, usize>,
    /// `pos` of every ASCII code point, case-folded — entity labels are
    /// almost entirely ASCII, so the map is only consulted for the rest.
    ascii: [u32; 128],
}

impl Alphabet {
    /// Builds an alphabet from an explicit character list.
    ///
    /// Duplicates are ignored; one extra `<unk>` slot is always appended, so
    /// [`Alphabet::len`] is `chars.len() + 1` for duplicate-free input.
    pub(crate) fn new(chars: impl IntoIterator<Item = char>) -> Self {
        let mut list = Vec::new();
        let mut index = BTreeMap::new();
        for c in chars {
            if let std::collections::btree_map::Entry::Vacant(e) = index.entry(c) {
                e.insert(list.len());
                list.push(c);
            }
        }
        let mut ascii = [0u32; 128];
        for (b, slot) in (0u8..).zip(&mut ascii) {
            let folded = char::from(b.to_ascii_lowercase());
            *slot = *index.get(&folded).unwrap_or(&list.len()) as u32;
        }
        Alphabet { chars: list, index, ascii }
    }

    /// The default EmbLookup alphabet: lowercase ASCII letters, digits,
    /// space, and common punctuation found in entity labels.
    pub fn default_lookup() -> Self {
        Alphabet::new(
            ('a'..='z')
                .chain('0'..='9')
                .chain(" .,'-&()/".chars()),
        )
    }

    /// Number of one-hot rows, including the `<unk>` slot.
    pub fn len(&self) -> usize {
        self.chars.len() + 1
    }

    /// True for a degenerate alphabet with only the `<unk>` slot.
    pub fn is_empty(&self) -> bool {
        self.chars.is_empty()
    }

    /// Positional index of `c`, or the `<unk>` slot for unknown characters.
    /// Uppercase ASCII is folded to lowercase first.
    pub fn pos(&self, c: char) -> usize {
        match self.ascii.get(c as usize) {
            Some(&p) => p as usize,
            // non-ASCII has no ASCII case folding to apply
            None => *self.index.get(&c).unwrap_or(&self.chars.len()),
        }
    }

    /// True when `c` (case-folded) is a member of the alphabet.
    #[cfg(test)]
    pub(crate) fn contains(&self, c: char) -> bool {
        self.index.contains_key(&c.to_ascii_lowercase())
    }

    /// The characters of the alphabet, in index order (without `<unk>`).
    #[cfg(test)]
    pub(crate) fn chars(&self) -> &[char] {
        &self.chars
    }
}

impl Default for Alphabet {
    fn default() -> Self {
        Self::default_lookup()
    }
}

/// One-hot encoder turning strings into `|A| × L` matrices (row-major).
#[derive(Debug, Clone)]
pub struct OneHotEncoder {
    alphabet: Alphabet,
    /// Maximum encoded length `L`; longer strings are truncated.
    pub max_len: usize,
}

impl OneHotEncoder {
    /// Creates an encoder for the given alphabet and maximum length.
    ///
    /// # Panics
    /// Panics if `max_len` is zero.
    pub fn new(alphabet: Alphabet, max_len: usize) -> Self {
        assert!(max_len > 0, "one-hot max_len must be positive");
        OneHotEncoder { alphabet, max_len }
    }

    /// The underlying alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of rows of the produced matrix (`|A|`, with `<unk>`).
    pub fn rows(&self) -> usize {
        self.alphabet.len()
    }

    /// Encodes `s` as a row-major `|A| × L` buffer.
    ///
    /// Column `i` is the one-hot vector of character `i`; columns beyond the
    /// string length stay zero, and characters beyond `max_len` are dropped,
    /// exactly as in the paper's preprocessing.
    pub fn encode(&self, s: &str) -> Vec<f32> {
        let rows = self.rows();
        let mut out = vec![0.0f32; rows * self.max_len];
        for (col, row) in self.indices(s).enumerate() {
            out[row * self.max_len + col] = 1.0;
        }
        out
    }

    /// The same encoding without the matrix: the one-hot row of each of
    /// the first `max_len` characters, in column order. Columns past the
    /// end of the string have no row and are simply not yielded.
    pub fn indices<'a>(&'a self, s: &'a str) -> impl Iterator<Item = usize> + 'a {
        s.chars().take(self.max_len).map(|c| self.alphabet.pos(c))
    }

    /// Shape of the encoded matrix as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows(), self.max_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_cad() {
        // Paper §III-B: A = {a,b,c,d,e}, L = 4, m = "cad"
        let alpha = Alphabet::new("abcde".chars());
        let enc = OneHotEncoder::new(alpha, 4);
        let m = enc.encode("cad");
        let rows = enc.rows(); // 5 letters + unk = 6
        assert_eq!(rows, 6);
        let col = |m: &[f32], j: usize| -> Vec<f32> {
            (0..rows).map(|i| m[i * 4 + j]).collect()
        };
        assert_eq!(col(&m, 0), vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0]); // 'c'
        assert_eq!(col(&m, 1), vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0]); // 'a'
        assert_eq!(col(&m, 2), vec![0.0, 0.0, 0.0, 1.0, 0.0, 0.0]); // 'd'
        assert_eq!(col(&m, 3), vec![0.0; 6]); // padding
    }

    #[test]
    fn unknown_chars_hit_unk_slot() {
        let alpha = Alphabet::new("ab".chars());
        assert_eq!(alpha.pos('a'), 0);
        assert_eq!(alpha.pos('b'), 1);
        assert_eq!(alpha.pos('z'), 2); // unk
        assert_eq!(alpha.len(), 3);
    }

    #[test]
    fn case_folding() {
        let alpha = Alphabet::default_lookup();
        assert_eq!(alpha.pos('A'), alpha.pos('a'));
        assert!(alpha.contains('Z'));
    }

    #[test]
    fn encode_truncates_long_strings() {
        let enc = OneHotEncoder::new(Alphabet::default_lookup(), 3);
        let m = enc.encode("abcdef");
        let ones: usize = m.iter().filter(|&&x| x == 1.0).count();
        assert_eq!(ones, 3);
    }

    #[test]
    fn encode_empty_string_is_all_zero() {
        let enc = OneHotEncoder::new(Alphabet::default_lookup(), 4);
        let m = enc.encode("");
        assert!(m.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn ascii_table_agrees_with_the_map() {
        // an alphabet with uppercase and non-ASCII members: uppercase
        // entries are unreachable (input is folded first), 'é' is not
        let alpha = Alphabet::new("abXé-".chars());
        let unk = alpha.len() - 1;
        for c in (0u8..128).map(char::from).chain("éÉ日ß".chars()) {
            let folded = c.to_ascii_lowercase();
            let expected = alpha.chars().iter().position(|&a| a == folded).unwrap_or(unk);
            assert_eq!(alpha.pos(c), expected, "{c:?}");
        }
        assert_eq!(alpha.pos('x'), unk);
        assert_eq!(alpha.pos('é'), 3);
    }

    #[test]
    fn indices_are_the_nonzero_rows_of_encode() {
        let enc = OneHotEncoder::new(Alphabet::default_lookup(), 8);
        for s in ["", "cad", "East Berlin 1990", "日本語 x", "  "] {
            let m = enc.encode(s);
            let idx: Vec<usize> = enc.indices(s).collect();
            assert_eq!(idx.len(), s.chars().count().min(8));
            for col in 0..8 {
                let rows: Vec<usize> = (0..enc.rows()).filter(|r| m[r * 8 + col] != 0.0).collect();
                assert_eq!(rows, idx.get(col).copied().into_iter().collect::<Vec<_>>(), "{s:?} col {col}");
            }
        }
    }

    #[test]
    fn duplicate_chars_deduped() {
        let alpha = Alphabet::new("aab".chars());
        assert_eq!(alpha.len(), 3); // a, b, unk
    }

    #[test]
    fn default_alphabet_covers_labels() {
        let alpha = Alphabet::default_lookup();
        for c in "federal republic of germany 1990's co. & (usa)/x-1".chars() {
            assert!(alpha.contains(c), "missing {c:?}");
        }
    }
}
