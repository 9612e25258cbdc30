//! Property tests for the similarity-join substrate.
//!
//! The property CrowdER's correctness rests on: the prefix-filtered join
//! returns *exactly* the pairs the brute-force oracle returns — for any
//! corpus, measure, and threshold.

use proptest::prelude::*;
use reprowd_simjoin::join::{brute_force_self_join, self_join, JoinConfig};
use reprowd_simjoin::similarity::SetSimilarity;
use reprowd_simjoin::tokenize::word_set;

/// Short records over a tiny vocabulary, so collisions are common.
fn record_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select(vec![
            "apple", "pear", "ibm", "phone", "red", "blue", "pro", "max", "mini", "x",
        ]),
        0..6,
    )
    .prop_map(|words| words.join(" "))
}

fn measure_strategy() -> impl Strategy<Value = SetSimilarity> {
    prop::sample::select(vec![
        SetSimilarity::Jaccard,
        SetSimilarity::Dice,
        SetSimilarity::Cosine,
        SetSimilarity::Overlap,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    #[test]
    fn filtered_join_equals_oracle(
        records in prop::collection::vec(record_strategy(), 0..25),
        measure in measure_strategy(),
        threshold in 0.05f64..=1.0,
    ) {
        let cfg = JoinConfig::new(measure, threshold);
        let fast = self_join(&records, &cfg);
        let slow = brute_force_self_join(&records, &cfg);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn tokenization_is_idempotent_and_sorted(s in ".{0,40}") {
        let w1 = word_set(&s);
        let rejoined = w1.join(" ");
        let w2 = word_set(&rejoined);
        prop_assert_eq!(&w1, &w2);
        prop_assert!(w1.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn similarity_bounded_and_reflexive(
        a in record_strategy(),
        b in record_strategy(),
        measure in measure_strategy(),
    ) {
        let sa = word_set(&a);
        let sb = word_set(&b);
        let sim = measure.compute(&sa, &sb);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&sim), "sim out of range: {}", sim);
        prop_assert_eq!(measure.compute(&sa, &sa), 1.0);
    }
}
