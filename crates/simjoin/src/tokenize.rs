//! Normalization and tokenization for set-based similarity.
//!
//! Entity-resolution records ("iPhone 6s, 64GB (Space Grey)") are noisy;
//! similarity must be computed over a canonical token set. We lowercase and
//! treat every non-alphanumeric rune as a separator; the word set is what
//! CrowdER's machine pass joins on (words are robust to re-orderings).

/// Lowercases and splits on non-alphanumeric boundaries.
pub fn words(s: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    for ch in s.chars() {
        if ch.is_alphanumeric() {
            for lc in ch.to_lowercase() {
                cur.push(lc);
            }
        } else if !cur.is_empty() {
            tokens.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

/// Sorted, deduplicated word tokens — the canonical *set* representation.
pub fn word_set(s: &str) -> Vec<String> {
    let mut tokens = words(s);
    tokens.sort_unstable();
    tokens.dedup();
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_basic() {
        assert_eq!(words("Hello, World!"), vec!["hello", "world"]);
        assert_eq!(words("iPhone 6s (64GB)"), vec!["iphone", "6s", "64gb"]);
        assert_eq!(words(""), Vec::<String>::new());
        assert_eq!(words("---"), Vec::<String>::new());
    }

    #[test]
    fn words_handles_unicode() {
        assert_eq!(words("Café Déjà-Vu"), vec!["café", "déjà", "vu"]);
    }

    #[test]
    fn word_set_sorted_dedup() {
        assert_eq!(word_set("b a b a c"), vec!["a", "b", "c"]);
    }
}
