//! Prefix, positional and suffix-bound filtering for set-similarity joins.
//!
//! *Prefix filter* (Chaudhuri et al.; PPJoin). Order every token by a
//! global total order, rarest first, so prefixes are selective. If two
//! sets must share at least `t` tokens to reach the similarity threshold,
//! then each set's *prefix* — its first `|x| - t + 1` tokens in the global
//! order — must contain at least one shared token ([`prefix_len`]).
//! Indexing only prefixes yields every candidate pair while probing a tiny
//! fraction of the data.
//!
//! *Positional filter* (Xiao et al., "Efficient Similarity Joins for Near
//! Duplicate Detection", WWW 2008). The index keeps, with each prefix
//! token, the token's position in its record and the record's length. When
//! the probe of record `x` meets token `x[i] = y[j]`, the tokens the two
//! records share *before* it are exactly those already counted for `y`
//! (both prefixes hold every token ordered before one of their prefix
//! tokens), and at most `min(|x| - i - 1, |y| - j - 1)` can follow it. So
//! once `count + 1 + min(|x| - i - 1, |y| - j - 1)` falls below the
//! overlap `α(|x|, |y|)` the pair needs, `y` cannot qualify and is pruned
//! with integer arithmetic. A partner that fails this test where it is
//! first met fails it at every later token too, so it is never counted.
//!
//! *Suffix bound* (the same paper's verification step). After the probe,
//! `count` holds every shared token up to the smaller of the two prefixes'
//! last tokens. If `x`'s last prefix token orders before `y`'s, the
//! uncounted shared tokens all lie in `x`'s suffix, at most `|x| - p_x` of
//! them; otherwise in `y`'s, at most `|y| - p_y`. A survivor whose `count`
//! plus that bound is below `α` is dropped unverified; the rest are
//! verified with [`SetSimilarity::compute`], unchanged, so every score is
//! the same `f64` as a brute-force join's.
//!
//! *The data.* `OrderedCorpus` holds every record's token ids, ascending
//! in the global order, in one flat arena. The index is dense: one posting
//! list of `(record, position, length)` per token id, and a per-record
//! overlap counter reset through the list of records it touched.
//! `LengthTable` precomputes the prefix length of every record length in
//! the corpus, and `α` from [`SetSimilarity::overlap_lower_bound`] for
//! every pair of them: one row and column per *distinct* length. `d`
//! distinct lengths sum to at most the corpus's token count `T`, so the
//! table holds at most `2T` entries.
//!
//! *Why no filter drops a pair the float measure accepts.* `α` is
//! `ceil(raw - 1e-9)`, where `raw` is the real-valued overlap bound
//! computed in `f64` (e.g. `θ/(1+θ)·(|x|+|y|)` for Jaccard). A pair with
//! overlap `o` that [`SetSimilarity::compute`] accepts satisfies the exact
//! inequality up to the rounding of one division or square root, a
//! relative error of ~2⁻⁵²; `raw` carries a few such roundings of a value
//! at most `|x| + |y|`. Both are far below the `10⁻⁹` slack for any record
//! shorter than millions of tokens, so `raw - 1e-9 < o` and `α ≤ o`, while
//! each filter only drops a pair whose overlap it has bounded below `α`.
//! The prefix length uses the same slack, through
//! [`SetSimilarity::min_overlap_any_partner`]. The unit test
//! `alpha_never_exceeds_an_accepted_overlap` checks `α` against the float
//! measure itself at exact-ratio thresholds.
//!
//! The probe-then-index loop is
//! [`SelfJoinStream`](crate::join::SelfJoinStream).

use crate::similarity::SetSimilarity;
use crate::tokenize::word_set;
use std::collections::HashMap;

/// Every record mapped into the global token order, in one flat arena:
/// record `r`'s token ids, ascending (rarer token = smaller id) and
/// deduplicated, are `tokens[offsets[r]..offsets[r + 1]]`.
#[derive(Debug)]
pub(crate) struct OrderedCorpus {
    tokens: Vec<u32>,
    offsets: Vec<u32>,
    vocab_len: usize,
}

impl OrderedCorpus {
    /// Tokenizes `records` into word sets, builds the rare-first global
    /// order over them (frequency ascending, then lexicographic, so the
    /// order is deterministic) and maps every record into it, in input
    /// order.
    pub(crate) fn build(records: &[String]) -> Self {
        let sets: Vec<Vec<String>> = records.iter().map(|r| word_set(r)).collect();
        let mut freq: HashMap<&str, u32> = HashMap::new();
        for tok in sets.iter().flatten() {
            *freq.entry(tok.as_str()).or_insert(0) += 1;
        }
        let mut by_rarity: Vec<(&str, u32)> = freq.into_iter().collect();
        by_rarity.sort_unstable_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(b.0)));
        let vocab: HashMap<&str, u32> =
            by_rarity.iter().enumerate().map(|(i, &(tok, _))| (tok, i as u32)).collect();

        let mut tokens = Vec::with_capacity(sets.iter().map(Vec::len).sum());
        let mut offsets = Vec::with_capacity(sets.len() + 1);
        offsets.push(0);
        for set in &sets {
            let start = tokens.len();
            tokens.extend(set.iter().map(|t| vocab[t.as_str()]));
            // `word_set` already deduplicated the words.
            tokens[start..].sort_unstable();
            offsets.push(u32::try_from(tokens.len()).expect("corpus under 2^32 tokens"));
        }
        OrderedCorpus { tokens, offsets, vocab_len: vocab.len() }
    }

    /// Number of records.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Record `id`'s token ids, ascending in the global order.
    pub(crate) fn record(&self, id: usize) -> &[u32] {
        &self.tokens[self.offsets[id] as usize..self.offsets[id + 1] as usize]
    }

    /// Number of distinct tokens: every token id is below it.
    pub(crate) fn vocab_len(&self) -> usize {
        self.vocab_len
    }

    /// `1 +` the longest record's length.
    fn length_bound(&self) -> usize {
        self.offsets.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0) + 1
    }
}

/// What the filters need per record length, for the lengths of one
/// corpus: the prefix length ([`prefix_len`]) of each length, and the
/// required overlap `α(|x|, |y|)` ([`SetSimilarity::overlap_lower_bound`])
/// of each pair of lengths.
#[derive(Debug)]
pub(crate) struct LengthTable {
    /// Record length -> its row and column (only lengths in the corpus are
    /// filled in).
    class: Vec<u32>,
    /// Prefix length, by column.
    prefix: Vec<u32>,
    /// `α`, one row of `prefix.len()` columns per length.
    alpha: Vec<u32>,
}

impl LengthTable {
    /// Builds the table for the record lengths of `corpus`.
    pub(crate) fn new(corpus: &OrderedCorpus, measure: SetSimilarity, threshold: f64) -> Self {
        let mut present = vec![false; corpus.length_bound()];
        for id in 0..corpus.len() {
            present[corpus.record(id).len()] = true;
        }
        let lengths: Vec<usize> = (0..present.len()).filter(|&len| present[len]).collect();
        let mut class = vec![0u32; present.len()];
        for (c, &len) in lengths.iter().enumerate() {
            class[len] = c as u32;
        }
        let prefix =
            lengths.iter().map(|&len| prefix_len(measure, len, threshold) as u32).collect();
        let alpha = lengths
            .iter()
            .flat_map(|&lx| {
                lengths.iter().map(move |&ly| {
                    let a = measure.overlap_lower_bound(lx, ly, threshold);
                    u32::try_from(a).unwrap_or(u32::MAX)
                })
            })
            .collect();
        LengthTable { class, prefix, alpha }
    }

    /// The prefix length of a record of `len` tokens.
    pub(crate) fn prefix(&self, len: usize) -> usize {
        self.prefix[self.column(len)] as usize
    }

    /// `α(len, ·)`, indexed by [`LengthTable::column`].
    pub(crate) fn alpha_row(&self, len: usize) -> &[u32] {
        let width = self.prefix.len();
        let start = self.column(len) * width;
        &self.alpha[start..start + width]
    }

    /// The column of a partner of `len` tokens in an
    /// [`alpha_row`](LengthTable::alpha_row).
    pub(crate) fn column(&self, len: usize) -> usize {
        self.class[len] as usize
    }
}

/// Length of the prefix that must be indexed for a record of `len` tokens
/// under `measure`/`threshold` when joined against arbitrary partners.
///
/// If the record must share at least `t` tokens with every qualifying
/// partner (see [`SetSimilarity::min_overlap_any_partner`]), then skipping
/// its last `t - 1` tokens cannot skip *all* shared tokens, so indexing the
/// first `len - t + 1` suffices.
pub fn prefix_len(measure: SetSimilarity, len: usize, threshold: f64) -> usize {
    if len == 0 {
        return 0;
    }
    let t = measure.min_overlap_any_partner(len, threshold).max(1);
    len.saturating_sub(t) + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::{self_join_stream, JoinConfig};
    use crate::similarity::intersection_size;

    fn strings(records: &[&str]) -> Vec<String> {
        records.iter().map(|r| r.to_string()).collect()
    }

    fn sets(records: &[&str]) -> Vec<Vec<String>> {
        records.iter().map(|r| word_set(r)).collect()
    }

    /// The `(left, right)` pairs the prefix-filtered join emits.
    fn joined(records: &[&str], threshold: f64) -> Vec<(usize, usize)> {
        let records = strings(records);
        let cfg = JoinConfig::new(SetSimilarity::Jaccard, threshold);
        self_join_stream(&records, &cfg).map(|p| (p.left, p.right)).collect()
    }

    const MEASURES: [SetSimilarity; 4] = [
        SetSimilarity::Jaccard,
        SetSimilarity::Dice,
        SetSimilarity::Cosine,
        SetSimilarity::Overlap,
    ];

    #[test]
    fn universe_orders_rare_first() {
        let corpus = OrderedCorpus::build(&strings(&["a b common", "c common", "d common"]));
        // "common" is in every record, so it orders last in each of them.
        let common_id = *corpus.record(1).last().unwrap();
        assert_eq!(common_id as usize, corpus.vocab_len() - 1);
        for id in 0..corpus.len() {
            let rec = corpus.record(id);
            assert_eq!(rec.last(), Some(&common_id));
            assert!(rec[..rec.len() - 1].iter().all(|&t| t < common_id));
        }
    }

    #[test]
    fn records_tokens_ascending_dedup() {
        let corpus = OrderedCorpus::build(&strings(&["b a b a", "a c", ""]));
        assert_eq!(corpus.len(), 3);
        assert_eq!((corpus.record(0).len(), corpus.record(1).len()), (2, 2));
        assert!(corpus.record(2).is_empty());
        for id in 0..corpus.len() {
            assert!(corpus.record(id).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn prefix_len_bounds() {
        // At threshold 1.0 the required overlap is the whole set: prefix = 1 token.
        assert_eq!(prefix_len(SetSimilarity::Jaccard, 5, 1.0), 1);
        // At threshold ~0 everything must be indexed.
        assert_eq!(prefix_len(SetSimilarity::Jaccard, 5, 0.0), 5);
        assert_eq!(prefix_len(SetSimilarity::Jaccard, 0, 0.5), 0);
    }

    #[test]
    fn length_table_is_indexed_by_length() {
        let corpus = OrderedCorpus::build(&strings(&["a b c d", "a b", "x y z w", ""]));
        let table = LengthTable::new(&corpus, SetSimilarity::Jaccard, 0.5);
        for (lx, ly) in [(4, 2), (2, 4), (4, 4), (2, 2), (0, 4)] {
            let want = SetSimilarity::Jaccard.overlap_lower_bound(lx, ly, 0.5) as u32;
            assert_eq!(table.alpha_row(lx)[table.column(ly)], want, "α({lx}, {ly})");
        }
        for len in [0, 2, 4] {
            assert_eq!(table.prefix(len), prefix_len(SetSimilarity::Jaccard, len, 0.5));
        }
    }

    /// The positional filter's safety: `α(nx, ny)` is never above an
    /// overlap whose float score [`SetSimilarity::compute`] accepts, at
    /// the thresholds where the exact ratio lands on the boundary.
    #[test]
    fn alpha_never_exceeds_an_accepted_overlap() {
        let thresholds = [1.0 / 3.0, 0.5, 2.0 / 3.0, 0.75, 1.0, 0.3, 0.8, 0.2, 0.4, 0.6, 0.9];
        for measure in MEASURES {
            for &theta in &thresholds {
                for nx in 1..=24usize {
                    for ny in 1..=24usize {
                        let alpha = measure.overlap_lower_bound(nx, ny, theta);
                        for o in 0..=nx.min(ny) {
                            // x = 0..nx, y shares its first `o` tokens.
                            let x: Vec<usize> = (0..nx).collect();
                            let y: Vec<usize> = (nx - o..nx - o + ny).collect();
                            if measure.compute(&x, &y) >= theta {
                                assert!(
                                    alpha <= o,
                                    "{measure:?} θ={theta} ({nx},{ny}): α={alpha} > o={o}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Filtering on prefixes must lose no truly-similar pair (completeness
    /// — the property CrowdER's recall depends on).
    #[test]
    fn prefix_filter_loses_no_similar_pair() {
        let records = [
            "apple iphone 6s 64gb",
            "iphone 6s 64gb apple smartphone",
            "samsung galaxy s7",
            "galaxy s7 samsung phone",
            "google pixel",
            "apple ipad pro",
            "ipad pro 12 inch apple",
            "nokia brick",
        ];
        let corpus = sets(&records);
        for threshold in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let pairs = joined(&records, threshold);
            for i in 0..corpus.len() {
                for j in i + 1..corpus.len() {
                    let sim = SetSimilarity::Jaccard.compute(&corpus[i], &corpus[j]);
                    if sim >= threshold && sim > 0.0 {
                        assert!(
                            pairs.contains(&(i, j)),
                            "missed pair ({i},{j}) sim={sim} at θ={threshold}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn identical_records_always_candidates() {
        assert_eq!(joined(&["exact copy of text", "exact copy of text"], 1.0), vec![(0, 1)]);
    }

    #[test]
    fn empty_records_never_crash() {
        // Empty records have empty prefixes: no pairs involving them.
        assert!(joined(&["", "a b", ""], 0.5).is_empty());
    }

    #[test]
    fn intersection_consistency_with_candidates() {
        let records = ["w x y z", "w x y q", "totally different words"];
        // records 0,1 share 3 of 5 tokens — jaccard 0.6
        assert_eq!(intersection_size(&sets(&records)[0], &sets(&records)[1]), 3);
        assert!(joined(&records, 0.6).contains(&(0, 1)));
    }
}
