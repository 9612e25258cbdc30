//! Word pools and string-noise primitives.
//!
//! The noise operations mirror how real-world duplicate records differ:
//! typos (substitution/deletion/transposition), token drops,
//! abbreviations, and token reordering.

use rand::rngs::StdRng;
use rand::Rng;

/// Restaurant-style name fragments (the classic ER benchmark domain).
pub const NAME_POOL: &[&str] = &[
    "golden", "dragon", "palace", "kitchen", "garden", "house", "grill", "bistro", "cafe",
    "corner", "royal", "lotus", "bamboo", "harbor", "sunset", "olive", "maple", "cedar",
    "urban", "rustic", "silver", "copper", "blue", "red", "green", "little", "grand",
];

/// City names for the address-ish field.
pub const CITY_POOL: &[&str] = &[
    "vancouver", "burnaby", "richmond", "surrey", "seattle", "portland", "toronto",
    "montreal", "calgary", "victoria",
];

/// Cuisine/category tokens.
pub const CATEGORY_POOL: &[&str] = &[
    "chinese", "italian", "mexican", "thai", "indian", "french", "japanese", "korean",
    "vegan", "seafood", "bbq", "noodle", "pizza", "sushi", "burger",
];

/// Applies one random character-level typo (substitute, delete, duplicate,
/// or transpose). Strings shorter than 2 characters are returned unchanged.
pub fn typo(rng: &mut StdRng, s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 1);
    push_typo(rng, s, &mut out);
    out
}

/// Abbreviates a token to its first 1–3 characters (like "restaurant" →
/// "rest"), keeping at least one character.
pub fn abbreviate(rng: &mut StdRng, token: &str) -> String {
    let mut out = String::with_capacity(token.len());
    push_abbreviation(rng, token, &mut out);
    out
}

/// Perturbs a whitespace-tokenized string: each token independently gets a
/// typo with probability `typo_p`, is abbreviated with probability
/// `abbr_p`, or dropped with probability `drop_p`; finally the token order
/// may be rotated with probability `shuffle_p`. At least one token always
/// survives, so records never become empty.
pub fn perturb(
    rng: &mut StdRng,
    s: &str,
    typo_p: f64,
    abbr_p: f64,
    drop_p: f64,
    shuffle_p: f64,
) -> String {
    Perturber::default().perturb(rng, s, typo_p, abbr_p, drop_p, shuffle_p)
}

/// Byte offset of the `k`-th character of `s` (`s.len()` past the end).
fn char_offset(s: &str, k: usize) -> usize {
    s.char_indices().nth(k).map_or(s.len(), |(at, _)| at)
}

/// Appends [`typo`]`(rng, s)` to `out`.
fn push_typo(rng: &mut StdRng, s: &str, out: &mut String) {
    let n = s.chars().count();
    if n < 2 {
        out.push_str(s);
        return;
    }
    let i = rng.gen_range(0..n);
    let at = |k| char_offset(s, k);
    match rng.gen_range(0..4u8) {
        0 => {
            // substitute with a nearby letter
            out.push_str(&s[..at(i)]);
            out.push((b'a' + rng.gen_range(0..26u8)) as char);
            out.push_str(&s[at(i + 1)..]);
        }
        1 => {
            out.push_str(&s[..at(i)]);
            out.push_str(&s[at(i + 1)..]);
        }
        2 => {
            out.push_str(&s[..at(i + 1)]);
            out.push_str(&s[at(i)..]);
        }
        _ => {
            // swap characters `j` and `j + 1`
            let j = if i + 1 < n { i } else { i - 1 };
            out.push_str(&s[..at(j)]);
            out.push_str(&s[at(j + 1)..at(j + 2)]);
            out.push_str(&s[at(j)..at(j + 1)]);
            out.push_str(&s[at(j + 2)..]);
        }
    }
}

/// Appends [`abbreviate`]`(rng, token)` to `out`.
fn push_abbreviation(rng: &mut StdRng, token: &str, out: &mut String) {
    let n = token.chars().count();
    if n <= 2 {
        out.push_str(token);
        return;
    }
    let keep = rng.gen_range(1..=3usize).min(n - 1);
    out.push_str(&token[..char_offset(token, keep)]);
}

/// [`perturb`] with its working buffers kept across calls, so a corpus of
/// records costs one allocation per record (the returned text).
#[derive(Debug, Default)]
pub(crate) struct Perturber {
    /// The kept tokens, space-separated.
    joined: String,
    /// Byte offset of each kept token in `joined`.
    starts: Vec<usize>,
}

impl Perturber {
    /// [`perturb`], drawing the same random numbers in the same order.
    pub(crate) fn perturb(
        &mut self,
        rng: &mut StdRng,
        s: &str,
        typo_p: f64,
        abbr_p: f64,
        drop_p: f64,
        shuffle_p: f64,
    ) -> String {
        let (joined, starts) = (&mut self.joined, &mut self.starts);
        joined.clear();
        starts.clear();
        let n_tokens = s.split_whitespace().count();
        for tok in s.split_whitespace() {
            let roll: f64 = rng.gen();
            if roll < drop_p && starts.len() + 1 < n_tokens {
                continue; // drop (but never drop the final remaining token)
            }
            if !starts.is_empty() {
                joined.push(' ');
            }
            starts.push(joined.len());
            if roll < drop_p + typo_p {
                push_typo(rng, tok, joined);
            } else if roll < drop_p + typo_p + abbr_p {
                push_abbreviation(rng, tok, joined);
            } else {
                joined.push_str(tok);
            }
        }
        if starts.is_empty() {
            starts.push(0);
            joined.push_str(s.split_whitespace().next().unwrap_or("x"));
        }
        let mut out = String::with_capacity(joined.len());
        if rng.gen::<f64>() < shuffle_p && starts.len() > 1 {
            // Rotate the tokens left: the one starting at `cut` leads.
            let cut = starts[rng.gen_range(1..starts.len())];
            out.push_str(&joined[cut..]);
            out.push(' ');
            out.push_str(&joined[..cut - 1]);
        } else {
            out.push_str(joined);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn typo_changes_or_preserves_length_sanely() {
        let mut r = rng(1);
        for _ in 0..100 {
            let t = typo(&mut r, "restaurant");
            assert!(!t.is_empty());
            assert!((t.len() as i64 - 10).abs() <= 1);
        }
    }

    #[test]
    fn typo_short_string_unchanged() {
        let mut r = rng(2);
        assert_eq!(typo(&mut r, "a"), "a");
        assert_eq!(typo(&mut r, ""), "");
    }

    #[test]
    fn abbreviate_shortens() {
        let mut r = rng(3);
        for _ in 0..50 {
            let a = abbreviate(&mut r, "vancouver");
            assert!(!a.is_empty() && a.len() < "vancouver".len());
            assert!("vancouver".starts_with(&a));
        }
        assert_eq!(abbreviate(&mut r, "ab"), "ab");
    }

    #[test]
    fn perturb_never_empties() {
        let mut r = rng(4);
        for _ in 0..200 {
            let p = perturb(&mut r, "golden dragon palace", 0.5, 0.3, 0.9, 0.5);
            assert!(!p.trim().is_empty());
        }
    }

    #[test]
    fn perturb_zero_noise_is_identity_modulo_whitespace() {
        let mut r = rng(5);
        assert_eq!(perturb(&mut r, "a  b   c", 0.0, 0.0, 0.0, 0.0), "a b c");
    }

    /// The string-noise primitives as first written, one `Vec<char>` or
    /// `Vec<String>` per call: the oracle of the buffer-reusing ones.
    mod reference {
        use rand::rngs::StdRng;
        use rand::Rng;

        pub fn typo(rng: &mut StdRng, s: &str) -> String {
            let chars: Vec<char> = s.chars().collect();
            if chars.len() < 2 {
                return s.to_string();
            }
            let i = rng.gen_range(0..chars.len());
            let mut out = chars.clone();
            match rng.gen_range(0..4u8) {
                0 => out[i] = (b'a' + rng.gen_range(0..26u8)) as char,
                1 => {
                    out.remove(i);
                }
                2 => {
                    let c = out[i];
                    out.insert(i, c);
                }
                _ => {
                    if i + 1 < out.len() {
                        out.swap(i, i + 1);
                    } else {
                        out.swap(i - 1, i);
                    }
                }
            }
            out.into_iter().collect()
        }

        pub fn abbreviate(rng: &mut StdRng, token: &str) -> String {
            let chars: Vec<char> = token.chars().collect();
            if chars.len() <= 2 {
                return token.to_string();
            }
            let keep = rng.gen_range(1..=3usize).min(chars.len() - 1);
            chars[..keep].iter().collect()
        }

        pub fn perturb(
            rng: &mut StdRng,
            s: &str,
            typo_p: f64,
            abbr_p: f64,
            drop_p: f64,
            shuffle_p: f64,
        ) -> String {
            let tokens: Vec<&str> = s.split_whitespace().collect();
            let mut out: Vec<String> = Vec::with_capacity(tokens.len());
            for tok in &tokens {
                let roll: f64 = rng.gen();
                if roll < drop_p && out.len() + 1 < tokens.len() {
                    continue;
                } else if roll < drop_p + typo_p {
                    out.push(typo(rng, tok));
                } else if roll < drop_p + typo_p + abbr_p {
                    out.push(abbreviate(rng, tok));
                } else {
                    out.push(tok.to_string());
                }
            }
            if out.is_empty() {
                out.push(tokens.first().unwrap_or(&"x").to_string());
            }
            if rng.gen::<f64>() < shuffle_p && out.len() > 1 {
                let rot = rng.gen_range(1..out.len());
                out.rotate_left(rot);
            }
            out.join(" ")
        }
    }

    /// Same outputs as the reference, and the same random draws after
    /// them, on ASCII and non-ASCII words, short ones and empty input.
    #[test]
    fn noise_matches_the_reference_draw_for_draw() {
        const WORDS: &[&str] = &[
            "", "a", "ab", "abc", "golden", "restaurant", "é", "café", "déjà", "日本語", "ßü",
            "x1", "unit42",
        ];
        let mut pick = rng(6);
        for seed in 0..300u64 {
            let n = pick.gen_range(0..7usize);
            let mut s = String::new();
            for k in 0..n {
                s.push_str(if k == 0 { "" } else { [" ", "  ", "\t"][pick.gen_range(0..3usize)] });
                s.push_str(WORDS[pick.gen_range(0..WORDS.len())]);
            }
            let p: Vec<f64> = (0..4).map(|_| pick.gen_range(0.0..0.6)).collect();
            let (mut a, mut b) = (rng(seed), rng(seed));
            for word in s.split(' ') {
                assert_eq!(typo(&mut a, word), reference::typo(&mut b, word), "typo {word:?}");
                assert_eq!(abbreviate(&mut a, word), reference::abbreviate(&mut b, word));
            }
            let mut perturber = Perturber::default();
            for _ in 0..4 {
                assert_eq!(
                    perturber.perturb(&mut a, &s, p[0], p[1], p[2], p[3]),
                    reference::perturb(&mut b, &s, p[0], p[1], p[2], p[3]),
                    "perturb {s:?} {p:?}"
                );
                assert_eq!(
                    perturb(&mut a, &s, p[0], p[1], p[2], p[3]),
                    reference::perturb(&mut b, &s, p[0], p[1], p[2], p[3])
                );
            }
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "draws diverged on {s:?}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = rng(42);
        let mut b = rng(42);
        for _ in 0..20 {
            assert_eq!(
                perturb(&mut a, "golden dragon cafe", 0.3, 0.2, 0.1, 0.3),
                perturb(&mut b, "golden dragon cafe", 0.3, 0.2, 0.1, 0.3)
            );
        }
    }
}
