//! Prefix filtering for set-similarity joins.
//!
//! The classic observation (Chaudhuri et al. / PPJoin): order every token by
//! a global total order (rarest first, so prefixes are selective). If two
//! sets must share at least `t` tokens to reach the similarity threshold,
//! then each set's *prefix* — its first `|x| - t + 1` tokens in the global
//! order — must contain at least one shared token. Indexing only prefixes
//! yields every candidate pair while probing a tiny fraction of the data.
//! The probe-then-index loop is [`SelfJoinStream`](crate::join::SelfJoinStream).

use crate::similarity::SetSimilarity;
use std::collections::HashMap;

/// A record mapped into the global token order: sorted ascending token ids
/// (rarer token = smaller id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderedRecord {
    /// Original record index.
    pub id: usize,
    /// Token ids, ascending in the global (rarity) order, deduplicated.
    pub tokens: Vec<u32>,
}

/// Builds the rare-first global order over `token_sets` (each must be a
/// deduplicated set; order within doesn't matter) and maps every record
/// into it, in input order.
pub fn build_universe(token_sets: &[Vec<String>]) -> Vec<OrderedRecord> {
    let mut freq: HashMap<&str, u32> = HashMap::new();
    for set in token_sets {
        for tok in set {
            *freq.entry(tok.as_str()).or_insert(0) += 1;
        }
    }
    // Sort tokens by (frequency asc, lexicographic) for a deterministic order.
    let mut by_rarity: Vec<(&str, u32)> = freq.into_iter().collect();
    by_rarity.sort_unstable_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(b.0)));
    let vocab: HashMap<&str, u32> =
        by_rarity.iter().enumerate().map(|(i, &(tok, _))| (tok, i as u32)).collect();

    token_sets
        .iter()
        .enumerate()
        .map(|(id, set)| {
            let mut tokens: Vec<u32> = set.iter().map(|t| vocab[t.as_str()]).collect();
            tokens.sort_unstable();
            tokens.dedup();
            OrderedRecord { id, tokens }
        })
        .collect()
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
    use crate::tokenize::word_set;

    fn sets(records: &[&str]) -> Vec<Vec<String>> {
        records.iter().map(|r| word_set(r)).collect()
    }

    /// The `(left, right)` pairs the prefix-filtered join emits.
    fn joined(records: &[&str], threshold: f64) -> Vec<(usize, usize)> {
        let records: Vec<String> = records.iter().map(|r| r.to_string()).collect();
        let cfg = JoinConfig::new(SetSimilarity::Jaccard, threshold);
        self_join_stream(&records, &cfg).map(|p| (p.left, p.right)).collect()
    }

    #[test]
    fn universe_orders_rare_first() {
        let records = build_universe(&sets(&["a b common", "c common", "d common"]));
        // "common" is in every record, so it orders last in each of them.
        let common_id = *records[1].tokens.last().unwrap();
        assert!(records.iter().all(|r| r.tokens.last() == Some(&common_id)));
        for rec in &records {
            assert!(rec.tokens[..rec.tokens.len() - 1].iter().all(|&t| t < common_id));
        }
    }

    #[test]
    fn records_tokens_ascending_dedup() {
        let records = build_universe(&sets(&["b a b a", "a c"]));
        for rec in &records {
            assert!(rec.tokens.windows(2).all(|w| w[0] < w[1]));
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
