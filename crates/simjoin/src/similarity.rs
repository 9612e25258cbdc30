//! Similarity measures over token sets.
//!
//! All set measures take *sorted, deduplicated* slices (as produced by
//! [`tokenize::word_set`](crate::tokenize::word_set)) so the intersection
//! can be computed by a linear merge.

/// Which set-overlap measure a join uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetSimilarity {
    /// `|x ∩ y| / |x ∪ y|` — the measure used throughout CrowdER.
    Jaccard,
    /// `2|x ∩ y| / (|x| + |y|)`.
    Dice,
    /// `|x ∩ y| / sqrt(|x|·|y|)` (binary cosine).
    Cosine,
    /// `|x ∩ y| / min(|x|, |y|)`.
    Overlap,
}

impl SetSimilarity {
    /// Computes the chosen measure over two sorted deduplicated token sets.
    pub fn compute<T: Ord>(&self, x: &[T], y: &[T]) -> f64 {
        let inter = intersection_size(x, y) as f64;
        let (nx, ny) = (x.len() as f64, y.len() as f64);
        if x.is_empty() && y.is_empty() {
            // Two empty records are conventionally identical.
            return 1.0;
        }
        match self {
            SetSimilarity::Jaccard => inter / (nx + ny - inter),
            SetSimilarity::Dice => 2.0 * inter / (nx + ny),
            SetSimilarity::Cosine => {
                if nx == 0.0 || ny == 0.0 {
                    0.0
                } else {
                    inter / (nx * ny).sqrt()
                }
            }
            SetSimilarity::Overlap => {
                let m = nx.min(ny);
                if m == 0.0 {
                    0.0
                } else {
                    inter / m
                }
            }
        }
    }

    /// Minimum number of shared tokens a set of size `n` must contribute to
    /// reach `threshold` with **any** partner — the bound prefix filtering
    /// builds on. The worst case is a partner no larger than the overlap
    /// itself, which yields:
    ///
    /// * Jaccard: `o/(n + m - o) ≥ θ`, minimized at `m = o` ⇒ `o ≥ θ·n`
    /// * Dice:    `2o/(n + m) ≥ θ`,   minimized at `m = o` ⇒ `o ≥ θ·n/(2-θ)`
    /// * Cosine:  `o/√(n·m) ≥ θ`,     minimized at `m = o` ⇒ `o ≥ θ²·n`
    /// * Overlap: `o/min(n,m) ≥ θ` with `m` free ⇒ only `o ≥ 1` (no pruning)
    pub fn min_overlap_any_partner(&self, n: usize, threshold: f64) -> usize {
        if n == 0 {
            return 0;
        }
        let n_f = n as f64;
        let raw = match self {
            SetSimilarity::Jaccard => threshold * n_f,
            SetSimilarity::Dice => threshold * n_f / (2.0 - threshold),
            SetSimilarity::Cosine => threshold * threshold * n_f,
            SetSimilarity::Overlap => 1.0,
        };
        ((raw - 1e-9).ceil().max(1.0) as usize).min(n)
    }

    /// Minimum number of shared tokens required for two sets of sizes
    /// `(nx, ny)` to reach `threshold`. Derived from the measure's
    /// definition; used by length-aware filters and the tests.
    pub fn overlap_lower_bound(&self, nx: usize, ny: usize, threshold: f64) -> usize {
        let (nx, ny) = (nx as f64, ny as f64);
        let raw = match self {
            SetSimilarity::Jaccard => threshold / (1.0 + threshold) * (nx + ny),
            SetSimilarity::Dice => threshold * (nx + ny) / 2.0,
            SetSimilarity::Cosine => threshold * (nx * ny).sqrt(),
            SetSimilarity::Overlap => threshold * nx.min(ny),
        };
        // ceil with a tiny epsilon so e.g. exactly-integral bounds survive
        // floating point noise.
        (raw - 1e-9).ceil().max(0.0) as usize
    }
}

/// Size of the intersection of two sorted deduplicated slices (linear merge).
pub fn intersection_size<T: Ord>(x: &[T], y: &[T]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < x.len() && j < y.len() {
        match x[i].cmp(&y[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn jaccard_known_values() {
        let x = s(&["a", "b", "c"]);
        let y = s(&["b", "c", "d"]);
        assert!((SetSimilarity::Jaccard.compute(&x, &y) - 0.5).abs() < 1e-12);
        assert_eq!(SetSimilarity::Jaccard.compute(&x, &x), 1.0);
        let z = s(&["x"]);
        assert_eq!(SetSimilarity::Jaccard.compute(&x, &z), 0.0);
    }

    #[test]
    fn dice_cosine_overlap_known_values() {
        let x = s(&["a", "b"]);
        let y = s(&["b", "c"]);
        assert!((SetSimilarity::Dice.compute(&x, &y) - 0.5).abs() < 1e-12);
        assert!((SetSimilarity::Cosine.compute(&x, &y) - 0.5).abs() < 1e-12);
        assert!((SetSimilarity::Overlap.compute(&x, &y) - 0.5).abs() < 1e-12);
        let sub = s(&["a"]);
        assert_eq!(SetSimilarity::Overlap.compute(&x, &sub), 1.0);
    }

    #[test]
    fn empty_set_conventions() {
        let e: Vec<String> = vec![];
        let x = s(&["a"]);
        for m in [
            SetSimilarity::Jaccard,
            SetSimilarity::Dice,
            SetSimilarity::Cosine,
            SetSimilarity::Overlap,
        ] {
            assert_eq!(m.compute(&e, &e), 1.0, "{m:?} on empty/empty");
            assert_eq!(m.compute(&e, &x), 0.0, "{m:?} on empty/nonempty");
        }
    }

    #[test]
    fn overlap_bound_is_tight_for_jaccard() {
        // If two sets of size 4 must have Jaccard >= 0.5 they share >= ceil(0.5/1.5*8)=3 tokens.
        assert_eq!(SetSimilarity::Jaccard.overlap_lower_bound(4, 4, 0.5), 3);
        // sanity: bound never exceeds min size for equal-size sets at θ=1
        assert_eq!(SetSimilarity::Jaccard.overlap_lower_bound(5, 5, 1.0), 5);
    }

    #[test]
    fn intersection_merge() {
        assert_eq!(intersection_size(&[1, 3, 5], &[2, 3, 5, 7]), 2);
        assert_eq!(intersection_size::<u8>(&[], &[]), 0);
        assert_eq!(intersection_size(&[1], &[1]), 1);
    }

    #[test]
    fn similarity_is_symmetric() {
        let x = s(&["a", "b", "c", "d"]);
        let y = s(&["c", "d", "e"]);
        for m in [
            SetSimilarity::Jaccard,
            SetSimilarity::Dice,
            SetSimilarity::Cosine,
            SetSimilarity::Overlap,
        ] {
            assert_eq!(m.compute(&x, &y), m.compute(&y, &x));
        }
    }
}
