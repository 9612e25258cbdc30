//! CrowdER (Wang, Kraska, Franklin, Feng — PVLDB 2012): hybrid
//! human-machine entity resolution.
//!
//! The machine pass (a prefix-filtered similarity self-join) prunes the
//! `O(n²)` pair space down to candidates above a likelihood threshold; only
//! those are sent to the crowd as match/no-match tasks. Lowering the
//! threshold buys recall with more crowd cost — the trade-off experiment E6
//! sweeps. Pairs at or above `auto_accept` similarity can be accepted
//! without human review (CrowdER's "machine-only" fringe).
//!
//! Candidates **stream**: the machine pass yields pairs lazily
//! ([`self_join_stream`]) straight into the pipelined execution engine
//! ([`run_stream`]), so candidate generation interleaves with task
//! publishing and the peak pair memory is bounded by the in-flight window
//! (batch size × the in-flight depth: each pipeline worker commits its
//! chunk before it claims another — reported as
//! [`CrowdErResult::peak_inflight_pairs`]) —
//! never by the candidate count, which lets the join scale past 10⁴
//! records without an `O(n²)` resident pair vector.

use crate::cluster::clusters_from_pairs;
use crate::join::{pair_from_object, pair_object, MATCH_QUESTION};
use reprowd_core::context::CrowdContext;
use reprowd_core::error::Result;
use reprowd_core::pipeline::{majority_answer, run_stream, StreamSpec};
use reprowd_core::presenter::Presenter;
use reprowd_core::value::Value;
use reprowd_simjoin::{self_join_stream, JoinConfig, SetSimilarity};

/// Configuration of a CrowdER run.
#[derive(Debug, Clone)]
pub struct CrowdErConfig {
    /// Experiment name (cache namespace).
    pub experiment: String,
    /// Machine-pass similarity measure.
    pub measure: SetSimilarity,
    /// Candidate threshold: pairs below it are pruned without crowd review.
    pub threshold: f64,
    /// Pairs with similarity `>= auto_accept` are matched without the
    /// crowd; set to `> 1.0` to crowd-verify everything.
    pub auto_accept: f64,
    /// Redundancy per crowd pair.
    pub n_assignments: u32,
}

impl CrowdErConfig {
    /// CrowdER defaults: Jaccard, θ = 0.3, no auto-accept, 3 assignments.
    pub fn new(experiment: &str) -> Self {
        CrowdErConfig {
            experiment: experiment.to_string(),
            measure: SetSimilarity::Jaccard,
            threshold: 0.3,
            auto_accept: 1.1,
            n_assignments: 3,
        }
    }
}

/// Output of [`crowder_join`].
#[derive(Debug, Clone)]
pub struct CrowdErResult {
    /// Candidate pairs that survived the machine pass. Reported as a count
    /// — candidates stream through the crowd pass and are never resident
    /// as a whole, which is the operator's memory guarantee.
    pub n_candidates: usize,
    /// Pairs auto-accepted by similarity alone.
    pub auto_accepted: Vec<(usize, usize)>,
    /// Number of pairs the crowd reviewed.
    pub n_crowd_reviewed: usize,
    /// Final matched pairs (auto-accepted ∪ crowd-confirmed).
    pub matched: Vec<(usize, usize)>,
    /// Cluster label per record (connected components of `matched`).
    pub clusters: Vec<usize>,
    /// Cache-reuse statistics of the crowd phase.
    pub stats: reprowd_core::crowddata::RunStats,
    /// High-water mark of crowd-pass pairs resident in the pipeline at
    /// once — bounded by batch size × the in-flight depth (the chunks the
    /// pipeline workers hold until they commit), regardless of how many
    /// candidates the machine pass emits.
    pub peak_inflight_pairs: usize,
}

/// Runs CrowdER over `records`. The `decorate` hook is called for every
/// constructed pair object (see the crate docs on the simulation seam).
///
/// Machine-pass candidates are generated lazily and streamed through the
/// pipelined crowd pass: at no point is the full candidate set — let alone
/// the `O(n²)` pair space — materialized.
pub fn crowder_join(
    cc: &CrowdContext,
    records: &[String],
    cfg: &CrowdErConfig,
    decorate: impl Fn(usize, usize, &mut Value) + Sync,
) -> Result<CrowdErResult> {
    let join_cfg = JoinConfig::new(cfg.measure, cfg.threshold);
    let space = Presenter::match_pair(MATCH_QUESTION)
        .static_answer_space()
        .expect("match judgment has a fixed answer space");

    // Machine pass (lazy) feeding the crowd pass (streamed): pairs at or
    // above `auto_accept` are matched without review and never become
    // crowd tasks; the grey zone flows on as pair objects.
    let mut n_candidates = 0usize;
    let mut auto_accepted: Vec<(usize, usize)> = Vec::new();
    let mut crowd_confirmed: Vec<(usize, usize)> = Vec::new();
    let mut n_crowd_reviewed = 0usize;
    let report = {
        let auto_accepted = &mut auto_accepted;
        let n_candidates = &mut n_candidates;
        let decorate = &decorate;
        let grey_zone = self_join_stream(records, &join_cfg).filter_map(move |pair| {
            *n_candidates += 1;
            if pair.similarity >= cfg.auto_accept {
                auto_accepted.push((pair.left, pair.right));
                None
            } else {
                Some(pair_object(
                    pair.left,
                    pair.right,
                    &records[pair.left],
                    &records[pair.right],
                    decorate,
                ))
            }
        });
        run_stream(
            cc,
            &StreamSpec {
                experiment: cfg.experiment.clone(),
                presenter: Presenter::match_pair(MATCH_QUESTION),
                n_assignments: cfg.n_assignments,
            },
            grey_zone,
            |row| {
                n_crowd_reviewed += 1;
                if majority_answer(&row.result.runs, &space) == Value::Bool(true) {
                    crowd_confirmed.push(pair_from_object(&row.object)?);
                }
                Ok(())
            },
        )?
    };

    let mut matched = auto_accepted.clone();
    matched.extend_from_slice(&crowd_confirmed);
    matched.sort_unstable();
    matched.dedup();
    let clusters = clusters_from_pairs(records.len(), &matched);

    Ok(CrowdErResult {
        n_candidates,
        auto_accepted,
        n_crowd_reviewed,
        matched,
        clusters,
        stats: report.stats,
        peak_inflight_pairs: report.peak_inflight_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::no_sim;
    use reprowd_core::val;

    /// A tiny corpus with an oracle decorate hook: the simulated crowd
    /// answers by ground-truth entity identity.
    fn corpus() -> (Vec<String>, Vec<usize>) {
        let records = vec![
            "golden dragon chinese restaurant vancouver".to_string(),
            "golden dragon chinese rest vancouver".to_string(),
            "golden dragon resturant vancouver chinese".to_string(),
            "blue ocean sushi bar richmond".to_string(),
            "blue ocean sushi richmond".to_string(),
            "tacofino mexican food truck".to_string(),
        ];
        let entities = vec![0, 0, 0, 1, 1, 2];
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
    fn finds_true_matches_with_reliable_crowd() {
        let cc = CrowdContext::in_memory_sim(51);
        let (records, entities) = corpus();
        let cfg = CrowdErConfig::new("er");
        let out = crowder_join(&cc, &records, &cfg, oracle(entities.clone())).unwrap();
        // All within-entity pairs that survive the machine pass are matched.
        for &(i, j) in &out.matched {
            assert_eq!(entities[i], entities[j], "false positive ({i},{j})");
        }
        // Clusters group the duplicates.
        assert_eq!(out.clusters[0], out.clusters[1]);
        assert_eq!(out.clusters[0], out.clusters[2]);
        assert_eq!(out.clusters[3], out.clusters[4]);
        assert_ne!(out.clusters[0], out.clusters[3]);
        assert_ne!(out.clusters[5], out.clusters[0]);
    }

    #[test]
    fn threshold_controls_crowd_cost() {
        let (records, entities) = corpus();
        let mut costs = Vec::new();
        for (idx, threshold) in [0.2, 0.5, 0.8].into_iter().enumerate() {
            let cc = CrowdContext::in_memory_sim(52);
            let mut cfg = CrowdErConfig::new(&format!("er-{idx}"));
            cfg.threshold = threshold;
            let out = crowder_join(&cc, &records, &cfg, oracle(entities.clone())).unwrap();
            costs.push(out.n_crowd_reviewed);
        }
        assert!(costs[0] >= costs[1] && costs[1] >= costs[2], "costs not monotone: {costs:?}");
    }

    #[test]
    fn auto_accept_skips_crowd_for_identical() {
        let cc = CrowdContext::in_memory_sim(53);
        let records =
            vec!["identical record text".to_string(), "identical record text".to_string()];
        let mut cfg = CrowdErConfig::new("er-auto");
        cfg.auto_accept = 1.0;
        let out = crowder_join(&cc, &records, &cfg, no_sim).unwrap();
        assert_eq!(out.auto_accepted, vec![(0, 1)]);
        assert_eq!(out.n_crowd_reviewed, 0);
        assert_eq!(out.matched, vec![(0, 1)]);
        assert_eq!(out.stats.tasks_published, 0, "no crowd tasks at all");
    }

    #[test]
    fn rerun_reuses_crowd_work() {
        let cc = CrowdContext::in_memory_sim(54);
        let (records, entities) = corpus();
        let cfg = CrowdErConfig::new("er-rerun");
        let first = crowder_join(&cc, &records, &cfg, oracle(entities.clone())).unwrap();
        let second = crowder_join(&cc, &records, &cfg, oracle(entities)).unwrap();
        assert_eq!(first.matched, second.matched);
        assert_eq!(second.stats.tasks_published, 0);
        assert!(second.stats.tasks_reused > 0);
    }

    #[test]
    fn empty_corpus() {
        let cc = CrowdContext::in_memory_sim(55);
        let out = crowder_join(&cc, &[], &CrowdErConfig::new("er-e"), no_sim).unwrap();
        assert!(out.matched.is_empty());
        assert!(out.clusters.is_empty());
    }
}
