//! Dawid–Skene EM with full per-worker confusion matrices.
//!
//! The classic 1979 model: the true label of item `i` is latent; worker `j`
//! has a confusion matrix `π_j[t][l]` = P(j answers `l` | truth is `t`).
//! Richer than the one-coin model — it captures *biased* workers (e.g.
//! someone who answers "No" whenever unsure) that a scalar accuracy cannot.
//! Estimation is EM with Laplace smoothing, initialized from the smoothed
//! vote histograms so it is deterministic.

use crate::onecoin::{argmax_labels, init_posteriors_from_votes, normalize_log};
use crate::truth::{LabelId, VoteMatrix, WorkerId};
use std::collections::HashMap;

/// Hyper-parameters for Dawid–Skene EM.
#[derive(Debug, Clone)]
pub struct DsConfig {
    /// Maximum EM iterations.
    pub max_iterations: usize,
    /// Stop when the max absolute posterior change falls below this.
    pub tolerance: f64,
    /// Laplace smoothing added to every confusion-matrix cell during the
    /// M-step; keeps rarely-seen workers from degenerate matrices.
    pub smoothing: f64,
}

impl Default for DsConfig {
    fn default() -> Self {
        DsConfig { max_iterations: 100, tolerance: 1e-6, smoothing: 0.01 }
    }
}

/// Fitted Dawid–Skene model.
#[derive(Debug, Clone)]
pub struct DsModel {
    /// `posteriors[i][t]` = P(true label of item `i` is `t` | votes).
    pub posteriors: Vec<Vec<f64>>,
    /// Per-worker confusion matrices, row = true label, column = answer.
    pub confusion: HashMap<WorkerId, Vec<Vec<f64>>>,
    /// Estimated class priors.
    pub priors: Vec<f64>,
    /// Iterations actually run.
    pub iterations: usize,
    /// Whether tolerance was reached before the iteration cap.
    pub converged: bool,
}

impl DsModel {
    /// Hard labels: argmax posterior; `None` for voteless items.
    pub fn labels(&self, matrix: &VoteMatrix) -> Vec<Option<LabelId>> {
        argmax_labels(&self.posteriors, matrix)
    }
}

/// Estimator entry point.
pub struct DawidSkene;

impl DawidSkene {
    /// Fits the model to `matrix`.
    pub fn fit(matrix: &VoteMatrix, config: &DsConfig) -> DsModel {
        let k = matrix.n_labels.max(1);
        let workers = matrix.workers();
        let mut posteriors = init_posteriors_from_votes(matrix);
        let mut confusion: HashMap<WorkerId, Vec<Vec<f64>>> = HashMap::new();
        let mut priors = vec![1.0 / k as f64; k];
        let mut iterations = 0;
        let mut converged = false;

        for _ in 0..config.max_iterations {
            iterations += 1;
            // ---- M step: confusion matrices + priors.
            let mut counts: HashMap<WorkerId, Vec<Vec<f64>>> = workers
                .iter()
                .map(|&w| (w, vec![vec![config.smoothing; k]; k]))
                .collect();
            let mut prior_acc = vec![0.0f64; k];
            let mut items_with_votes = 0usize;
            for (i, votes) in matrix.items.iter().enumerate() {
                if votes.is_empty() {
                    continue;
                }
                items_with_votes += 1;
                for (t, &p) in posteriors[i].iter().enumerate() {
                    prior_acc[t] += p;
                }
                for &(w, l) in votes {
                    let c = counts.get_mut(&w).expect("worker listed");
                    for (t, &p) in posteriors[i].iter().enumerate() {
                        c[t][l] += p;
                    }
                }
            }
            if items_with_votes > 0 {
                for p in prior_acc.iter_mut() {
                    *p /= items_with_votes as f64;
                }
                priors = prior_acc;
            }
            for (_, c) in counts.iter_mut() {
                for row in c.iter_mut() {
                    let s: f64 = row.iter().sum();
                    if s > 0.0 {
                        for v in row.iter_mut() {
                            *v /= s;
                        }
                    }
                }
            }
            confusion = counts;

            // ---- E step.
            let mut max_delta = 0.0f64;
            for (i, votes) in matrix.items.iter().enumerate() {
                if votes.is_empty() {
                    continue;
                }
                let mut logp: Vec<f64> =
                    priors.iter().map(|&p| p.max(1e-300).ln()).collect();
                for &(w, l) in votes {
                    let c = &confusion[&w];
                    for (t, lp) in logp.iter_mut().enumerate() {
                        *lp += c[t][l].max(1e-300).ln();
                    }
                }
                let new_post = normalize_log(&logp);
                for t in 0..k {
                    max_delta = max_delta.max((new_post[t] - posteriors[i][t]).abs());
                }
                posteriors[i] = new_post;
            }
            if max_delta < config.tolerance {
                converged = true;
                break;
            }
        }
        DsModel { posteriors, confusion, priors, iterations, converged }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vote::{majority_vote_matrix, TiePolicy};

    /// Crowd with a *biased* worker: always answers 1 when truth is 0, but
    /// is perfect when truth is 1. One-coin can't express this; DS can.
    fn biased_crowd(n_items: usize) -> (VoteMatrix, Vec<LabelId>) {
        let truth: Vec<LabelId> = (0..n_items).map(|i| i % 2).collect();
        let mut m = VoteMatrix::new(2, n_items);
        let wrong = |w: u64, i: usize, rate_pct: u64| -> bool {
            let mut z = (w << 32) ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            z % 100 < rate_pct
        };
        // Two decent workers (15% symmetric error).
        for w in [1u64, 2] {
            for (i, &t) in truth.iter().enumerate() {
                let l = if wrong(w, i, 15) { 1 - t } else { t };
                m.push_vote(i, w, l);
            }
        }
        // One fully biased worker: says 1 regardless of truth.
        for (i, _) in truth.iter().enumerate() {
            m.push_vote(i, 99, 1);
        }
        (m, truth)
    }

    fn hard_accuracy(pred: &[Option<LabelId>], truth: &[LabelId]) -> f64 {
        pred.iter().zip(truth).filter(|(p, t)| p.as_ref() == Some(t)).count() as f64
            / truth.len() as f64
    }

    #[test]
    fn learns_biased_worker_confusion() {
        let (m, _) = biased_crowd(200);
        let model = DawidSkene::fit(&m, &DsConfig::default());
        let c = &model.confusion[&99];
        // Row 0 (truth=0): worker 99 answers 1 with high probability.
        assert!(c[0][1] > 0.9, "biased row learned: {c:?}");
        // Row 1 (truth=1): also answers 1 (correctly).
        assert!(c[1][1] > 0.9);
    }

    /// Crowd where the *majority* of workers are asymmetrically biased
    /// toward label 1 (80% error on truth-0 items, 5% on truth-1 items).
    /// MV collapses on truth-0 items; DS learns the per-row error rates and
    /// re-weights, which is exactly the case the confusion-matrix model
    /// exists for.
    fn asymmetric_crowd(n_items: usize) -> (VoteMatrix, Vec<LabelId>) {
        let truth: Vec<LabelId> = (0..n_items).map(|i| i % 2).collect();
        let mut m = VoteMatrix::new(2, n_items);
        let wrong = |w: u64, i: usize, rate_pct: u64| -> bool {
            let mut z = (w << 32) ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            z % 100 < rate_pct
        };
        // Two good symmetric workers (10% error).
        for w in [1u64, 2] {
            for (i, &t) in truth.iter().enumerate() {
                let l = if wrong(w, i, 10) { 1 - t } else { t };
                m.push_vote(i, w, l);
            }
        }
        // Three yes-biased workers.
        for w in [10u64, 11, 12] {
            for (i, &t) in truth.iter().enumerate() {
                let rate = if t == 0 { 80 } else { 5 };
                let l = if wrong(w, i, rate) { 1 - t } else { t };
                m.push_vote(i, w, l);
            }
        }
        (m, truth)
    }

    #[test]
    fn beats_majority_vote_under_asymmetric_bias() {
        let (m, truth) = asymmetric_crowd(400);
        let mv = hard_accuracy(&majority_vote_matrix(&m, TiePolicy::LowestLabel), &truth);
        let model = DawidSkene::fit(&m, &DsConfig::default());
        let ds = hard_accuracy(&model.labels(&m), &truth);
        assert!(
            ds > mv + 0.05,
            "DS ({ds}) should clearly beat MV ({mv}) under asymmetric bias"
        );
        assert!(ds > 0.85, "DS accuracy {ds}");
    }

    #[test]
    fn perfect_workers_yield_perfect_labels() {
        let truth: Vec<LabelId> = (0..50).map(|i| i % 3).collect();
        let mut m = VoteMatrix::new(3, 50);
        for w in 1..=3u64 {
            for (i, &t) in truth.iter().enumerate() {
                m.push_vote(i, w, t);
            }
        }
        let model = DawidSkene::fit(&m, &DsConfig::default());
        let labels = model.labels(&m);
        for (p, t) in labels.iter().zip(&truth) {
            assert_eq!(p.as_ref(), Some(t));
        }
        assert!(model.converged);
    }

    #[test]
    fn posteriors_are_distributions() {
        let (m, _) = biased_crowd(60);
        let model = DawidSkene::fit(&m, &DsConfig::default());
        for post in &model.posteriors {
            let s: f64 = post.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn confusion_rows_are_distributions() {
        let (m, _) = biased_crowd(60);
        let model = DawidSkene::fit(&m, &DsConfig::default());
        for c in model.confusion.values() {
            for row in c {
                let s: f64 = row.iter().sum();
                assert!((s - 1.0).abs() < 1e-9, "row sums to {s}");
            }
        }
    }

    #[test]
    fn empty_matrix_is_fine() {
        let m = VoteMatrix::new(2, 2);
        let model = DawidSkene::fit(&m, &DsConfig::default());
        assert_eq!(model.labels(&m), vec![None, None]);
    }

    #[test]
    fn deterministic_across_runs() {
        let (m, _) = biased_crowd(80);
        let a = DawidSkene::fit(&m, &DsConfig::default());
        let b = DawidSkene::fit(&m, &DsConfig::default());
        assert_eq!(a.posteriors, b.posteriors);
    }

    #[test]
    fn priors_reflect_label_balance() {
        // 80% of items are label 0.
        let truth: Vec<LabelId> = (0..100).map(|i| usize::from(i % 5 == 0)).collect();
        let mut m = VoteMatrix::new(2, 100);
        for w in 1..=3u64 {
            for (i, &t) in truth.iter().enumerate() {
                m.push_vote(i, w, t);
            }
        }
        let model = DawidSkene::fit(&m, &DsConfig::default());
        assert!((model.priors[0] - 0.8).abs() < 0.05, "priors: {:?}", model.priors);
    }
}
