//! The similarity self-join: candidate generation + verification.
//!
//! [`self_join_stream`] is the join: it yields every pair of records whose
//! similarity clears the threshold, with the exact score attached, lazily —
//! record by record against an incrementally built prefix index — so
//! CrowdER's crowd pass can interleave candidate generation with task
//! publishing and never hold the full pair list in memory. [`self_join`]
//! is that stream collected and sorted by descending similarity. There is
//! no R×S join. A brute-force oracle ([`brute_force_self_join`]) backs
//! the tests and benchmarks.

use crate::prefix::{LengthTable, OrderedCorpus};
use crate::similarity::SetSimilarity;
use crate::tokenize::word_set;

/// A verified similar pair (indices into the input slice, `left < right`).
#[derive(Debug, Clone, PartialEq)]
pub struct SimPair {
    /// Index of the first record.
    pub left: usize,
    /// Index of the second record.
    pub right: usize,
    /// Exact similarity under the configured measure.
    pub similarity: f64,
}

/// Configuration of a similarity join.
#[derive(Debug, Clone)]
pub struct JoinConfig {
    /// Set measure to verify with.
    pub measure: SetSimilarity,
    /// Minimum similarity for a pair to be emitted.
    pub threshold: f64,
}

impl JoinConfig {
    /// Creates a config, clamping the threshold into `(0, 1]`.
    ///
    /// A threshold of exactly 0 would emit all `O(n²)` pairs; we clamp to a
    /// small epsilon so degenerate sweeps stay finite but behave like 0.
    pub fn new(measure: SetSimilarity, threshold: f64) -> Self {
        JoinConfig { measure, threshold: threshold.clamp(1e-9, 1.0) }
    }
}

/// All pairs of `records` with similarity >= threshold, sorted by
/// descending similarity then ascending indices: [`self_join_stream`],
/// collected and sorted.
pub fn self_join(records: &[String], config: &JoinConfig) -> Vec<SimPair> {
    let mut pairs: Vec<SimPair> = self_join_stream(records, config).collect();
    sort_pairs(&mut pairs);
    pairs
}

/// A lazy self-join: yields exactly the pairs [`self_join`] returns, but
/// one at a time, ordered by the *later* record's index (then the earlier
/// one's) instead of by descending similarity — the order in which an
/// incremental index discovers them.
///
/// Construction tokenizes the corpus into one flat arena in the global
/// token order and precomputes the filters' per-length table
/// (`O(n · tokens)`). Iteration then probes and extends the prefix index
/// record by record (see [`prefix`](crate::prefix) for the filters). The
/// resident state is the postings, `O(n · prefix)`, plus one `O(n)`
/// overlap counter, not the `O(n²)`-in-the-worst-case pair set; the only
/// pair-related memory is the handful of verified pairs buffered for the
/// current record.
pub fn self_join_stream<'a>(records: &[String], config: &'a JoinConfig) -> SelfJoinStream<'a> {
    let corpus = OrderedCorpus::build(records);
    let lengths = LengthTable::new(&corpus, config.measure, config.threshold);
    SelfJoinStream {
        index: vec![Vec::new(); corpus.vocab_len()],
        count: vec![0; corpus.len()],
        touched: Vec::new(),
        corpus,
        lengths,
        config,
        current: 0,
        buffered: Vec::new(),
    }
}

/// One prefix token of an indexed record.
#[derive(Debug, Clone)]
struct Posting {
    record: u32,
    /// Position of the token in the record.
    pos: u32,
    /// The record's length.
    len: u32,
}

/// Marks a partner the positional filter has pruned for the current probe.
const PRUNED: i32 = -1;

/// Iterator state of [`self_join_stream`].
#[derive(Debug)]
pub struct SelfJoinStream<'a> {
    /// Records mapped into the global token order (by input index).
    corpus: OrderedCorpus,
    /// Prefix length and required overlap by record length.
    lengths: LengthTable,
    config: &'a JoinConfig,
    /// token id -> prefix postings of the records probed so far.
    index: Vec<Vec<Posting>>,
    /// record -> prefix tokens shared with the current record so far, or
    /// [`PRUNED`]; zero for every record outside `touched`.
    count: Vec<i32>,
    /// Records `count` holds a value for during the current probe.
    touched: Vec<u32>,
    /// Next record to probe against the index.
    current: usize,
    /// Verified pairs of the current record, in descending partner order
    /// so `pop` yields them ascending.
    buffered: Vec<SimPair>,
}

impl Iterator for SelfJoinStream<'_> {
    type Item = SimPair;

    fn next(&mut self) -> Option<SimPair> {
        loop {
            if let Some(pair) = self.buffered.pop() {
                return Some(pair);
            }
            if self.current >= self.corpus.len() {
                return None;
            }
            let id = self.current;
            self.current += 1;
            let rec = self.corpus.record(id);
            let len = rec.len();
            let p = self.lengths.prefix(len);
            let alpha = self.lengths.alpha_row(len);
            // Probe: count each earlier record's shared prefix tokens,
            // pruning it once the tokens left cannot reach α.
            for (i, &tok) in rec[..p].iter().enumerate() {
                for post in &self.index[tok as usize] {
                    let other = post.record as usize;
                    let count = self.count[other];
                    if count == PRUNED {
                        continue;
                    }
                    let rest = (len - i - 1).min((post.len - post.pos - 1) as usize);
                    let needed = alpha[self.lengths.column(post.len as usize)] as usize;
                    if count as usize + 1 + rest < needed {
                        // A partner first met here fails at every later
                        // token too, so only a counted one is marked.
                        if count > 0 {
                            self.count[other] = PRUNED;
                        }
                        continue;
                    }
                    if count == 0 {
                        self.touched.push(post.record);
                    }
                    self.count[other] = count + 1;
                }
            }
            // Verify the survivors whose uncounted suffix can still reach
            // α with the exact measure, resetting every counter.
            for &other in &self.touched {
                let other = other as usize;
                let count = std::mem::take(&mut self.count[other]);
                if count == PRUNED {
                    continue;
                }
                let partner = self.corpus.record(other);
                let column = self.lengths.column(partner.len());
                let q = self.lengths.prefix(partner.len());
                let suffix = if rec[p - 1] < partner[q - 1] { len - p } else { partner.len() - q };
                if count as usize + suffix >= alpha[column] as usize {
                    let sim = self.config.measure.compute(partner, rec);
                    if sim >= self.config.threshold {
                        self.buffered.push(SimPair { left: other, right: id, similarity: sim });
                    }
                }
            }
            self.touched.clear();
            self.buffered.sort_unstable_by_key(|pair| std::cmp::Reverse(pair.left));
            // Extend the index with this record's prefix.
            let record = id as u32;
            for (pos, &tok) in rec[..p].iter().enumerate() {
                let posting = Posting { record, pos: pos as u32, len: len as u32 };
                self.index[tok as usize].push(posting);
            }
        }
    }
}

/// O(n²) oracle used to validate the filtered join.
///
/// Like [`self_join`], records with an empty token set join nothing: an
/// entity-resolution record with no content carries no evidence of identity.
pub fn brute_force_self_join(records: &[String], config: &JoinConfig) -> Vec<SimPair> {
    let token_sets: Vec<Vec<String>> = records.iter().map(|r| word_set(r)).collect();
    let mut out = Vec::new();
    for i in 0..token_sets.len() {
        for j in i + 1..token_sets.len() {
            if token_sets[i].is_empty() || token_sets[j].is_empty() {
                continue;
            }
            let sim = config.measure.compute(&token_sets[i], &token_sets[j]);
            if sim >= config.threshold {
                out.push(SimPair { left: i, right: j, similarity: sim });
            }
        }
    }
    sort_pairs(&mut out);
    out
}

fn sort_pairs(pairs: &mut [SimPair]) {
    pairs.sort_by(|a, b| {
        b.similarity
            .partial_cmp(&a.similarity)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.left.cmp(&b.left))
            .then(a.right.cmp(&b.right))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<String> {
        vec![
            "apple iphone 6s 64gb space grey".into(),
            "iphone 6s 64gb apple".into(),
            "samsung galaxy s7 edge 32gb".into(),
            "galaxy s7 edge samsung 32gb black".into(),
            "google pixel xl".into(),
            "lenovo thinkpad x1 carbon".into(),
        ]
    }

    #[test]
    fn filtered_equals_brute_force_across_thresholds() {
        let records = corpus();
        for threshold in [0.2, 0.4, 0.5, 0.6, 0.8, 1.0] {
            for measure in [SetSimilarity::Jaccard, SetSimilarity::Dice] {
                let cfg = JoinConfig::new(measure, threshold);
                assert_eq!(
                    self_join(&records, &cfg),
                    brute_force_self_join(&records, &cfg),
                    "θ={threshold}, {measure:?}"
                );
            }
        }
    }

    #[test]
    fn stream_orders_by_later_record_and_handles_edge_corpora() {
        let records = corpus();
        let pairs: Vec<SimPair> =
            self_join_stream(&records, &JoinConfig::new(SetSimilarity::Jaccard, 0.1)).collect();
        // Discovery order: grouped by the later record, partners ascending.
        assert!(pairs
            .windows(2)
            .all(|w| w[0].right < w[1].right
                || (w[0].right == w[1].right && w[0].left < w[1].left)));
        // A pair appears exactly once even when prefixes share many tokens.
        let mut seen = std::collections::HashSet::new();
        assert!(pairs.iter().all(|p| seen.insert((p.left, p.right))));
        // Degenerate inputs.
        let cfg = JoinConfig::new(SetSimilarity::Jaccard, 0.5);
        assert_eq!(self_join_stream(&[], &cfg).count(), 0);
        assert_eq!(self_join_stream(&["one".to_string()], &cfg).count(), 0);
        let empties = vec!["".to_string(), "a b".to_string(), "".to_string()];
        assert_eq!(self_join_stream(&empties, &cfg).count(), 0);
    }

    #[test]
    fn results_sorted_by_similarity_desc() {
        let records = corpus();
        let pairs = self_join(&records, &JoinConfig::new(SetSimilarity::Jaccard, 0.1));
        assert!(pairs.windows(2).all(|w| w[0].similarity >= w[1].similarity));
    }

    #[test]
    fn threshold_one_matches_exact_duplicates_only() {
        let records = vec![
            "a b c".to_string(),
            "c b a".to_string(), // same token set
            "a b c d".to_string(),
        ];
        let pairs = self_join(&records, &JoinConfig::new(SetSimilarity::Jaccard, 1.0));
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].left, pairs[0].right), (0, 1));
    }

    #[test]
    fn empty_input_and_single_record() {
        let cfg = JoinConfig::new(SetSimilarity::Jaccard, 0.5);
        assert!(self_join(&[], &cfg).is_empty());
        assert!(self_join(&["only one".to_string()], &cfg).is_empty());
    }

    #[test]
    fn zero_threshold_is_clamped_not_explosive() {
        let cfg = JoinConfig::new(SetSimilarity::Jaccard, 0.0);
        assert!(cfg.threshold > 0.0);
        // Disjoint records have sim 0.0 < epsilon: not emitted.
        let records = vec!["aaa bbb".to_string(), "ccc ddd".to_string()];
        assert!(self_join(&records, &cfg).is_empty());
    }
}
