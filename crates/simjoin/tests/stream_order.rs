//! Differential tests of the join's *stream* order.
//!
//! CrowdER's cache keys, its chunks and the benchmark's digest follow the
//! order [`self_join_stream`] yields pairs in, not just the pair set. So
//! the stream must yield exactly the brute-force pairs, ordered by the
//! later record and then the earlier one, with bit-identical scores.

use proptest::prelude::*;
use reprowd_datagen::{ErConfig, ErCorpus};
use reprowd_simjoin::join::{brute_force_self_join, self_join_stream, JoinConfig};
use reprowd_simjoin::similarity::SetSimilarity;

/// `(left, right, similarity bits)` of each pair, as the stream yields them.
fn stream(records: &[String], cfg: &JoinConfig) -> Vec<(usize, usize, u64)> {
    self_join_stream(records, cfg).map(|p| (p.left, p.right, p.similarity.to_bits())).collect()
}

/// The oracle's pairs in stream order: by `(right, left)`.
fn oracle(records: &[String], cfg: &JoinConfig) -> Vec<(usize, usize, u64)> {
    let mut pairs: Vec<(usize, usize, u64)> = brute_force_self_join(records, cfg)
        .into_iter()
        .map(|p| (p.left, p.right, p.similarity.to_bits()))
        .collect();
    pairs.sort_unstable_by_key(|&(left, right, _)| (right, left));
    pairs
}

/// 0–12 tokens over a small vocabulary, words repeating within a record.
fn record_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select(vec![
            "apple", "pear", "ibm", "phone", "red", "blue", "pro", "max", "mini", "x", "golden",
            "dragon", "cafe", "unit1",
        ]),
        0..13,
    )
    .prop_map(|words| words.join(" "))
}

/// Records with copies of earlier ones inserted among them (empty records
/// come from the zero-length draws).
fn corpus_strategy() -> impl Strategy<Value = Vec<String>> {
    (prop::collection::vec(record_strategy(), 0..30), prop::collection::vec(0usize..64, 0..8))
        .prop_map(|(mut records, copies)| {
            for k in copies {
                if !records.is_empty() {
                    let copy = records[k % records.len()].clone();
                    records.insert(k % (records.len() + 1), copy);
                }
            }
            records
        })
}

fn measure_strategy() -> impl Strategy<Value = SetSimilarity> {
    prop::sample::select(vec![
        SetSimilarity::Jaccard,
        SetSimilarity::Dice,
        SetSimilarity::Cosine,
        SetSimilarity::Overlap,
    ])
}

/// Exact-ratio boundaries, where a score lands on the threshold, or any
/// threshold.
fn threshold_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![prop::sample::select(vec![1.0 / 3.0, 0.5, 2.0 / 3.0, 0.75, 1.0]), 0.05f64..=1.0]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    #[test]
    fn stream_yields_the_oracle_pairs_in_stream_order(
        records in corpus_strategy(),
        measure in measure_strategy(),
        threshold in threshold_strategy(),
    ) {
        let cfg = JoinConfig::new(measure, threshold);
        prop_assert_eq!(stream(&records, &cfg), oracle(&records, &cfg));
    }
}

#[test]
fn er_corpus_stream_equals_oracle() {
    let records =
        ErCorpus::generate(&ErConfig { n_entities: 700, seed: 5, ..ErConfig::default() }).texts();
    assert!((1000..=2000).contains(&records.len()), "{} records", records.len());
    for threshold in [0.3, 0.5, 0.8] {
        let cfg = JoinConfig::new(SetSimilarity::Jaccard, threshold);
        let got = stream(&records, &cfg);
        assert!(!got.is_empty(), "θ={threshold}: no pairs");
        assert_eq!(got, oracle(&records, &cfg), "θ={threshold}");
    }
}
