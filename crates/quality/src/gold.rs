//! Gold-standard calibration.
//!
//! The oldest quality-control trick: seed the task stream with items whose
//! answer is known ("gold" tasks), estimate each worker's accuracy from
//! those, then weight workers accordingly. Produces the
//! weight maps consumed by [`weighted`](crate::weighted).

use crate::truth::{LabelId, VoteMatrix, WorkerId};
use std::collections::HashMap;

/// Per-worker accuracy estimates from gold tasks.
#[derive(Debug, Clone)]
pub struct GoldCalibration {
    /// Estimated accuracy per worker (Laplace-smoothed).
    pub accuracy: HashMap<WorkerId, f64>,
    /// Gold items each worker actually answered.
    pub answered: HashMap<WorkerId, usize>,
    /// Smoothing used (pseudo-counts of one correct + one incorrect).
    pub smoothing: f64,
}

impl GoldCalibration {
    /// Scores every worker in `matrix` against `gold`, a map from item index
    /// to true label. Items absent from `gold` are ignored.
    ///
    /// Accuracy is `(correct + s) / (answered + 2s)` with `s = smoothing`,
    /// so workers seen on few gold items shrink toward 0.5 instead of
    /// snapping to 0 or 1.
    pub fn from_gold(matrix: &VoteMatrix, gold: &HashMap<usize, LabelId>, smoothing: f64) -> Self {
        let mut correct: HashMap<WorkerId, usize> = HashMap::new();
        let mut answered: HashMap<WorkerId, usize> = HashMap::new();
        for (item, votes) in matrix.items.iter().enumerate() {
            let Some(&truth) = gold.get(&item) else { continue };
            for &(w, l) in votes {
                *answered.entry(w).or_insert(0) += 1;
                if l == truth {
                    *correct.entry(w).or_insert(0) += 1;
                }
            }
        }
        let accuracy = answered
            .iter()
            .map(|(&w, &n)| {
                let c = correct.get(&w).copied().unwrap_or(0) as f64;
                (w, (c + smoothing) / (n as f64 + 2.0 * smoothing))
            })
            .collect();
        GoldCalibration { accuracy, answered, smoothing }
    }

    /// Raw accuracies as vote weights (unknown workers get 0.5 by default —
    /// pass that as `default_weight` to the weighted vote).
    pub fn weights(&self) -> HashMap<WorkerId, f64> {
        self.accuracy.clone()
    }

    /// Log-odds weights `ln(a / (1 - a))` — the theoretically optimal
    /// weighting for independent binary workers. Accuracies are clamped to
    /// keep weights finite; workers below 0.5 get *negative* weight clamped
    /// to zero (they should not be trusted, not anti-trusted, without a
    /// full confusion model).
    pub fn log_odds_weights(&self) -> HashMap<WorkerId, f64> {
        self.accuracy
            .iter()
            .map(|(&w, &a)| {
                let a = a.clamp(1e-3, 1.0 - 1e-3);
                (w, (a / (1.0 - a)).ln().max(0.0))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (VoteMatrix, HashMap<usize, LabelId>) {
        // Items 0..4 are gold with truth 0; worker 1 always right,
        // worker 2 always wrong, worker 3 half and half.
        let mut m = VoteMatrix::new(2, 6);
        let mut gold = HashMap::new();
        for i in 0..4 {
            gold.insert(i, 0usize);
            m.push_vote(i, 1, 0);
            m.push_vote(i, 2, 1);
            m.push_vote(i, 3, if i < 2 { 0 } else { 1 });
        }
        // Non-gold items don't affect calibration.
        m.push_vote(4, 1, 1);
        m.push_vote(5, 2, 0);
        (m, gold)
    }

    #[test]
    fn accuracy_estimates_ordering() {
        let (m, gold) = setup();
        let cal = GoldCalibration::from_gold(&m, &gold, 1.0);
        assert!(cal.accuracy[&1] > cal.accuracy[&3]);
        assert!(cal.accuracy[&3] > cal.accuracy[&2]);
        assert_eq!(cal.answered[&1], 4);
    }

    #[test]
    fn smoothing_pulls_toward_half() {
        let (m, gold) = setup();
        let tight = GoldCalibration::from_gold(&m, &gold, 0.01);
        let loose = GoldCalibration::from_gold(&m, &gold, 10.0);
        assert!(tight.accuracy[&1] > loose.accuracy[&1]);
        assert!(loose.accuracy[&1] > 0.5);
        assert!((loose.accuracy[&3] - 0.5).abs() < 0.05);
    }

    #[test]
    fn log_odds_weights_clamped_nonnegative() {
        let (m, gold) = setup();
        let cal = GoldCalibration::from_gold(&m, &gold, 1.0);
        let w = cal.log_odds_weights();
        assert!(w[&1] > 0.0);
        assert_eq!(w[&2], 0.0); // worse-than-chance worker neutralized
        assert!(w.values().all(|&x| x >= 0.0));
    }

    #[test]
    fn worker_never_on_gold_is_absent() {
        let (mut m, gold) = setup();
        m.push_vote(5, 42, 1); // worker 42 only labels non-gold item 5
        let cal = GoldCalibration::from_gold(&m, &gold, 1.0);
        assert!(!cal.accuracy.contains_key(&42));
    }

    #[test]
    fn empty_gold_set() {
        let (m, _) = setup();
        let cal = GoldCalibration::from_gold(&m, &HashMap::new(), 1.0);
        assert!(cal.accuracy.is_empty());
    }
}
