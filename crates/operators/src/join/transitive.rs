//! Transitivity-aware crowdsourced joins (Wang, Li, Kraska, Franklin, Feng
//! — SIGMOD 2013).
//!
//! Key idea: match relations are (approximately) transitive. Having learned
//! `a = b` and `b = c`, the pair `(a, c)` need not be asked — it is deduced
//! positive. Having learned `a = b` and `b ≠ d`, the pair `(a, d)` is
//! deduced negative. The crowd is consulted only when no deduction applies,
//! and the *order* in which pairs are processed changes how many questions
//! are saved — descending machine-similarity order front-loads the likely
//! positives that unlock deductions (the SIGMOD paper's observation,
//! reproduced by experiment E7).
//!
//! Each question is streamed on its own: a one-candidate [`run_stream`]
//! of the pair, whose verdict is the majority answer — the next question
//! depends on it. The operator leans on content-keyed caching, so a
//! crashed or rerun join resumes mid-sequence for free.

use crate::cluster::clusters_from_pairs;
use crate::join::{pair_object, MATCH_QUESTION};
use reprowd_core::context::CrowdContext;
use reprowd_core::crowddata::RunStats;
use reprowd_core::error::Result;
use reprowd_core::hash::fnv1a;
use reprowd_core::pipeline::{majority_answer, run_stream, StreamSpec};
use reprowd_core::presenter::Presenter;
use reprowd_core::value::Value;
use reprowd_simjoin::{self_join, JoinConfig, SetSimilarity, SimPair};
use std::collections::{HashMap, HashSet};

/// The order candidate pairs are processed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairOrdering {
    /// Descending machine similarity — the SIGMOD'13 recommendation.
    SimilarityDesc,
    /// Ascending similarity — an adversarial baseline.
    SimilarityAsc,
    /// Deterministic pseudo-random order derived from the seed.
    Random(u64),
}

/// Configuration of a transitive join.
#[derive(Debug, Clone)]
pub struct TransitiveConfig {
    /// Experiment name (cache namespace).
    pub experiment: String,
    /// Machine-pass similarity measure.
    pub measure: SetSimilarity,
    /// Candidate threshold for the machine pass.
    pub threshold: f64,
    /// Redundancy per asked pair.
    pub n_assignments: u32,
    /// Processing order.
    pub ordering: PairOrdering,
}

impl TransitiveConfig {
    /// Defaults: Jaccard θ=0.3, 3 assignments, similarity-descending.
    pub fn new(experiment: &str) -> Self {
        TransitiveConfig {
            experiment: experiment.to_string(),
            measure: SetSimilarity::Jaccard,
            threshold: 0.3,
            n_assignments: 3,
            ordering: PairOrdering::SimilarityDesc,
        }
    }
}

/// Output of [`transitive_join`].
#[derive(Debug, Clone)]
pub struct TransitiveResult {
    /// Candidate pairs from the machine pass.
    pub candidates: Vec<SimPair>,
    /// Pairs the crowd was actually asked, in ask order.
    pub asked: Vec<(usize, usize)>,
    /// Candidate pairs resolved positive by transitivity (never asked).
    pub deduced_positive: usize,
    /// Candidate pairs resolved negative by transitivity (never asked).
    pub deduced_negative: usize,
    /// All candidate pairs ultimately labeled positive.
    pub matched: Vec<(usize, usize)>,
    /// Cluster label per record.
    pub clusters: Vec<usize>,
    /// Cache-reuse statistics aggregated over the ask sequence.
    pub stats: RunStats,
}

/// Runs the transitivity-aware join over `records`.
pub fn transitive_join(
    cc: &CrowdContext,
    records: &[String],
    cfg: &TransitiveConfig,
    decorate: impl Fn(usize, usize, &mut Value),
) -> Result<TransitiveResult> {
    let mut candidates = self_join(records, &JoinConfig::new(cfg.measure, cfg.threshold));
    order_pairs(&mut candidates, cfg.ordering);

    let mut uf = crate::cluster::UnionFind::new(records.len());
    // Negative relations between cluster representatives.
    let mut negative: HashMap<usize, HashSet<usize>> = HashMap::new();

    let mut asked = Vec::new();
    let mut deduced_positive = 0usize;
    let mut deduced_negative = 0usize;
    let mut matched = Vec::new();
    let mut stats = RunStats::default();

    let spec = StreamSpec {
        experiment: cfg.experiment.clone(),
        presenter: Presenter::match_pair(MATCH_QUESTION),
        n_assignments: cfg.n_assignments,
    };
    let space =
        spec.presenter.static_answer_space().expect("match judgment has a fixed answer space");

    for pair in &candidates {
        let (i, j) = (pair.left, pair.right);
        let (ra, rb) = (uf.find(i), uf.find(j));
        if ra == rb {
            deduced_positive += 1;
            matched.push((i, j));
            continue;
        }
        if negative.get(&ra).is_some_and(|s| s.contains(&rb)) {
            deduced_negative += 1;
            continue;
        }
        // No deduction: ask the crowd for this one pair.
        let obj = pair_object(i, j, &records[i], &records[j], &decorate);
        let mut verdict = Value::Null;
        let report = run_stream(cc, &spec, std::iter::once(obj), |row| {
            verdict = majority_answer(&row.result.runs, &space);
            Ok(())
        })?;
        stats.merge(report.stats);
        asked.push((i, j));
        if verdict == Value::Bool(true) {
            matched.push((i, j));
            merge_with_negatives(&mut uf, &mut negative, ra, rb);
        } else {
            negative.entry(ra).or_default().insert(rb);
            negative.entry(rb).or_default().insert(ra);
        }
    }

    matched.sort_unstable();
    matched.dedup();
    let clusters = clusters_from_pairs(records.len(), &matched);
    Ok(TransitiveResult {
        candidates,
        asked,
        deduced_positive,
        deduced_negative,
        matched,
        clusters,
        stats,
    })
}

/// Union two clusters and rewrite negative edges to the new representative.
fn merge_with_negatives(
    uf: &mut crate::cluster::UnionFind,
    negative: &mut HashMap<usize, HashSet<usize>>,
    ra: usize,
    rb: usize,
) {
    uf.union(ra, rb);
    let root = uf.find(ra);
    let mut merged: HashSet<usize> = HashSet::new();
    for rep in [ra, rb] {
        if let Some(set) = negative.remove(&rep) {
            merged.extend(set);
        }
    }
    for other in &merged {
        if let Some(set) = negative.get_mut(other) {
            set.remove(&ra);
            set.remove(&rb);
            set.insert(root);
        }
    }
    if !merged.is_empty() {
        negative.insert(root, merged);
    }
}

fn order_pairs(pairs: &mut [SimPair], ordering: PairOrdering) {
    match ordering {
        // self_join already returns similarity-descending order.
        PairOrdering::SimilarityDesc => {}
        PairOrdering::SimilarityAsc => pairs.reverse(),
        PairOrdering::Random(seed) => {
            pairs.sort_by_key(|p| {
                fnv1a(format!("{seed}/{}/{}", p.left, p.right).as_bytes())
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reprowd_core::val;

    /// Three entities with 3, 3, and 2 duplicates.
    fn corpus() -> (Vec<String>, Vec<usize>) {
        let records = vec![
            "golden dragon chinese restaurant vancouver".to_string(),
            "golden dragon chinese rest vancouver".to_string(),
            "golden dragon restaurant vancouver chinese".to_string(),
            "blue ocean sushi bar richmond bc".to_string(),
            "blue ocean sushi richmond bc".to_string(),
            "blue ocean sushi bar bc richmond".to_string(),
            "tacofino mexican truck".to_string(),
            "tacofino mexican food truck".to_string(),
        ];
        let entities = vec![0, 0, 0, 1, 1, 1, 2, 2];
        (records, entities)
    }

    fn oracle(entities: Vec<usize>) -> impl Fn(usize, usize, &mut Value) {
        move |i, j, obj: &mut Value| {
            obj["_sim"] = val!({
                "kind": "match",
                "is_match": entities[i] == entities[j],
                "ambiguity": 0.0,
            });
        }
    }

    #[test]
    fn transitivity_saves_questions() {
        let cc = CrowdContext::in_memory_sim(61);
        let (records, entities) = corpus();
        let cfg = TransitiveConfig::new("tj");
        let out = transitive_join(&cc, &records, &cfg, oracle(entities.clone())).unwrap();
        assert!(
            out.asked.len() < out.candidates.len(),
            "no questions saved: asked {} of {}",
            out.asked.len(),
            out.candidates.len()
        );
        assert!(out.deduced_positive > 0);
        // Clustering equals ground truth for a perfect crowd.
        for (i, j) in
            (0..records.len()).flat_map(|i| (i + 1..records.len()).map(move |j| (i, j)))
        {
            let same_truth = entities[i] == entities[j];
            let same_pred = out.clusters[i] == out.clusters[j];
            // Only pairs that were machine candidates can be linked; the
            // corpus is built so all true pairs clear the threshold.
            if same_truth {
                assert!(same_pred, "missed true pair ({i},{j})");
            } else {
                assert!(!same_pred, "false link ({i},{j})");
            }
        }
    }

    #[test]
    fn matches_crowder_result_with_fewer_questions() {
        let (records, entities) = corpus();
        let cc = CrowdContext::in_memory_sim(62);
        let t = transitive_join(
            &cc,
            &records,
            &TransitiveConfig::new("tj2"),
            oracle(entities.clone()),
        )
        .unwrap();
        let cc2 = CrowdContext::in_memory_sim(62);
        let c = crate::join::crowder::crowder_join(
            &cc2,
            &records,
            &crate::join::crowder::CrowdErConfig::new("er2"),
            oracle(entities),
        )
        .unwrap();
        // Same final clustering…
        assert_eq!(t.clusters, c.clusters);
        // …with strictly fewer crowd questions.
        assert!(t.asked.len() < c.n_crowd_reviewed);
    }

    #[test]
    fn ordering_changes_question_count() {
        let (records, entities) = corpus();
        let ask_count = |ordering: PairOrdering, name: &str| {
            let cc = CrowdContext::in_memory_sim(63);
            let mut cfg = TransitiveConfig::new(name);
            cfg.ordering = ordering;
            transitive_join(&cc, &records, &cfg, oracle(entities.clone()))
                .unwrap()
                .asked
                .len()
        };
        let desc = ask_count(PairOrdering::SimilarityDesc, "tj-desc");
        let asc = ask_count(PairOrdering::SimilarityAsc, "tj-asc");
        // Descending order should never need more questions than ascending
        // on this corpus (positives unlock deductions early).
        assert!(desc <= asc, "desc {desc} > asc {asc}");
    }

    #[test]
    fn rerun_reuses_all_asked_pairs() {
        let cc = CrowdContext::in_memory_sim(64);
        let (records, entities) = corpus();
        let cfg = TransitiveConfig::new("tj-rerun");
        let first = transitive_join(&cc, &records, &cfg, oracle(entities.clone())).unwrap();
        let second = transitive_join(&cc, &records, &cfg, oracle(entities)).unwrap();
        assert_eq!(first.matched, second.matched);
        assert_eq!(first.asked, second.asked);
        assert_eq!(second.stats.tasks_published, 0, "rerun must be free");
    }

    #[test]
    fn negative_deduction_fires() {
        // Two tight clusters whose cross pairs survive the machine pass:
        // after one cross pair is answered "no", the rest are deduced.
        let records = vec![
            "alpha beta gamma delta shared tokens".to_string(),
            "alpha beta gamma delta shared tokens x".to_string(),
            "alpha beta gamma delta shared words".to_string(),
            "alpha beta gamma delta shared words y".to_string(),
        ];
        let entities = vec![0, 0, 1, 1];
        let cc = CrowdContext::in_memory_sim(65);
        let mut cfg = TransitiveConfig::new("tj-neg");
        cfg.threshold = 0.2;
        let out = transitive_join(&cc, &records, &cfg, oracle(entities)).unwrap();
        assert!(out.deduced_negative > 0, "expected negative deductions: {out:?}");
        assert_eq!(out.clusters[0], out.clusters[1]);
        assert_eq!(out.clusters[2], out.clusters[3]);
        assert_ne!(out.clusters[0], out.clusters[2]);
    }

    #[test]
    fn empty_records() {
        let cc = CrowdContext::in_memory_sim(66);
        let out = transitive_join(
            &cc,
            &[],
            &TransitiveConfig::new("tj-e"),
            crate::no_sim,
        )
        .unwrap();
        assert!(out.asked.is_empty());
        assert!(out.matched.is_empty());
    }
}
