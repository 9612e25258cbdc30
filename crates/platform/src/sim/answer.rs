//! Ground-truth-driven answer models.
//!
//! A human worker looks at the task and knows something about the answer;
//! a simulated worker must be told. Each task payload carries a reserved
//! `"_sim"` field — an [`AnswerModel`] describing the hidden truth and how
//! hard it is to see — which the engine combines with the worker's profile
//! to sample an answer. The `"_sim"` field is the *simulation seam*: the
//! rest of the payload is exactly what a real platform would show workers.

use crate::sim::worker::WorkerProfile;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Key of the reserved simulation field inside task payloads.
pub const SIM_FIELD: &str = "_sim";

/// How simulated workers answer a task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum AnswerModel {
    /// Choose one of `labels`; the correct one is `truth` (an index).
    /// `difficulty` ∈ \[0,1\] scales the worker's effective accuracy down
    /// to chance at 1.0.
    Label {
        /// Index of the correct label.
        truth: usize,
        /// Label strings workers answer with.
        labels: Vec<String>,
        /// Item difficulty in `[0, 1]`.
        difficulty: f64,
    },
    /// Pairwise comparison; `p_first` is the Bradley–Terry probability that
    /// an ideal worker prefers the first element.
    Compare {
        /// P(ideal worker answers "first").
        p_first: f64,
    },
    /// Match/no-match judgment on a candidate pair (entity resolution).
    /// `ambiguity` plays the role of difficulty.
    Match {
        /// Ground truth: do the two records denote the same entity?
        is_match: bool,
        /// How confusable the pair is, in `[0, 1]`.
        ambiguity: f64,
    },
    /// Every worker answers exactly this value (plumbing/testing).
    Fixed {
        /// The canned answer.
        value: serde_json::Value,
    },
}

impl AnswerModel {
    /// Embeds the model into a task payload under [`SIM_FIELD`].
    pub fn embed(&self, mut payload: serde_json::Value) -> serde_json::Value {
        if !payload.is_object() {
            payload = serde_json::json!({ "content": payload });
        }
        payload[SIM_FIELD] = serde_json::to_value(self).expect("model serializes");
        payload
    }

    /// Extracts the model from a payload, if present. Reads the borrowed
    /// tree field by field, accepting exactly what the derived decoder
    /// accepts, so publishing a task neither clones nor re-encodes it.
    pub fn extract(payload: &serde_json::Value) -> Option<AnswerModel> {
        let sim = payload.get(SIM_FIELD)?;
        let field = |key: &str| sim.get(key).unwrap_or(&serde_json::Value::Null);
        let number = |key: &str| field(key).as_f64().filter(|f| f.is_finite());
        Some(match sim.get("kind")?.as_str()? {
            "label" => AnswerModel::Label {
                truth: usize::try_from(field("truth").as_u64()?).ok()?,
                labels: field("labels")
                    .as_array()?
                    .iter()
                    .map(|l| l.as_str().map(str::to_owned))
                    .collect::<Option<_>>()?,
                difficulty: number("difficulty")?,
            },
            "compare" => AnswerModel::Compare { p_first: number("p_first")? },
            "match" => AnswerModel::Match {
                is_match: field("is_match").as_bool()?,
                ambiguity: number("ambiguity")?,
            },
            "fixed" => AnswerModel::Fixed { value: field("value").clone() },
            _ => return None,
        })
    }

    /// Samples `worker`'s answer. Deterministic given the RNG state.
    pub fn sample(&self, worker: &WorkerProfile, rng: &mut StdRng) -> serde_json::Value {
        match self {
            AnswerModel::Label { truth, labels, difficulty } => {
                let k = labels.len().max(2);
                // Bias fires first: a biased worker ignores the item.
                if let Some((bias_label, strength)) = worker.bias {
                    if rng.gen::<f64>() < strength {
                        let l = bias_label.min(labels.len().saturating_sub(1));
                        return serde_json::json!(labels[l]);
                    }
                }
                let p_correct = effective_accuracy(worker.ability, *difficulty, k);
                let answer = if rng.gen::<f64>() < p_correct {
                    *truth
                } else {
                    // Uniform over the wrong labels.
                    let mut wrong = rng.gen_range(0..k - 1);
                    if wrong >= *truth {
                        wrong += 1;
                    }
                    wrong.min(labels.len() - 1)
                };
                serde_json::json!(labels[answer])
            }
            AnswerModel::Compare { p_first } => {
                // The worker perceives the true preference with probability
                // `ability`, otherwise flips a coin.
                let perceives = rng.gen::<f64>() < worker.ability;
                let says_first = if perceives {
                    rng.gen::<f64>() < *p_first
                } else {
                    rng.gen::<f64>() < 0.5
                };
                serde_json::json!(if says_first { "first" } else { "second" })
            }
            AnswerModel::Match { is_match, ambiguity } => {
                let p_correct = effective_accuracy(worker.ability, *ambiguity, 2);
                let correct = rng.gen::<f64>() < p_correct;
                serde_json::json!(if correct { *is_match } else { !*is_match })
            }
            AnswerModel::Fixed { value } => value.clone(),
        }
    }
}

/// Worker accuracy degraded by item difficulty: linear interpolation from
/// `ability` (difficulty 0) down to chance `1/k` (difficulty 1).
pub fn effective_accuracy(ability: f64, difficulty: f64, k: usize) -> f64 {
    let chance = 1.0 / k.max(2) as f64;
    let d = difficulty.clamp(0.0, 1.0);
    (ability * (1.0 - d) + chance * d).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    fn worker(ability: f64) -> WorkerProfile {
        WorkerProfile::with_ability(7, ability)
    }

    fn label_model(truth: usize, difficulty: f64) -> AnswerModel {
        AnswerModel::Label {
            truth,
            labels: vec!["Yes".into(), "No".into()],
            difficulty,
        }
    }

    #[test]
    fn embed_extract_roundtrip() {
        let m = label_model(0, 0.3);
        let payload = m.embed(serde_json::json!({"url": "img1.jpg"}));
        assert_eq!(payload["url"], "img1.jpg");
        assert_eq!(AnswerModel::extract(&payload), Some(m));
    }

    #[test]
    fn embed_wraps_non_object_payloads() {
        let m = AnswerModel::Fixed { value: serde_json::json!(1) };
        let payload = m.embed(serde_json::json!("bare string"));
        assert_eq!(payload["content"], "bare string");
        assert!(AnswerModel::extract(&payload).is_some());
    }

    #[test]
    fn extract_absent_is_none() {
        assert_eq!(AnswerModel::extract(&serde_json::json!({"x": 1})), None);
    }

    #[test]
    fn extract_accepts_what_the_derived_decoder_accepts() {
        for sim in [
            r#"{"kind":"label","truth":1,"labels":["a","b"],"difficulty":0}"#,
            r#"{"kind":"label","truth":1,"labels":["a","b"],"difficulty":0.5,"extra":[1]}"#,
            r#"{"kind":"label","truth":1.0,"labels":["a"],"difficulty":0.5}"#,
            r#"{"kind":"label","truth":-1,"labels":["a"],"difficulty":0.5}"#,
            r#"{"kind":"label","truth":0,"labels":["a",2],"difficulty":0.5}"#,
            r#"{"kind":"label","truth":0,"labels":"a","difficulty":0.5}"#,
            r#"{"kind":"label","truth":0,"labels":[]}"#,
            r#"{"kind":"compare","p_first":0.75}"#,
            r#"{"kind":"compare","p_first":"0.75"}"#,
            r#"{"kind":"compare","p_first":1e400}"#,
            r#"{"kind":"compare"}"#,
            r#"{"kind":"match","is_match":true,"ambiguity":1}"#,
            r#"{"kind":"match","is_match":1,"ambiguity":1}"#,
            r#"{"kind":"fixed","value":{"b":[1,null],"a":"x"}}"#,
            r#"{"kind":"fixed"}"#,
            r#"{"kind":"other","value":1}"#,
            r#"{"kind":7}"#,
            r#"{"value":1}"#,
            r#"["fixed"]"#,
            r#""fixed""#,
            "null",
        ] {
            let sim: serde_json::Value = serde_json::from_str(sim).unwrap();
            let derived = serde_json::from_value::<AnswerModel>(sim.clone()).ok();
            let payload = serde_json::json!({ "x": 1, "_sim": sim });
            assert_eq!(AnswerModel::extract(&payload), derived, "{sim}");
        }
    }

    #[test]
    fn perfect_worker_easy_task_always_right() {
        let m = label_model(1, 0.0);
        let w = worker(1.0);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(m.sample(&w, &mut r), serde_json::json!("No"));
        }
    }

    #[test]
    fn ability_governs_empirical_accuracy() {
        let m = label_model(0, 0.0);
        let w = worker(0.8);
        let mut r = rng();
        let n = 20_000;
        let correct = (0..n)
            .filter(|_| m.sample(&w, &mut r) == serde_json::json!("Yes"))
            .count() as f64;
        let emp = correct / n as f64;
        assert!((emp - 0.8).abs() < 0.02, "empirical accuracy {emp}");
    }

    #[test]
    fn difficulty_one_is_chance() {
        let m = label_model(0, 1.0);
        let w = worker(1.0);
        let mut r = rng();
        let n = 20_000;
        let correct = (0..n)
            .filter(|_| m.sample(&w, &mut r) == serde_json::json!("Yes"))
            .count() as f64;
        let emp = correct / n as f64;
        assert!((emp - 0.5).abs() < 0.02, "empirical accuracy {emp}");
    }

    #[test]
    fn biased_worker_mostly_answers_bias() {
        let m = label_model(0, 0.0);
        let mut w = worker(0.9);
        w.bias = Some((1, 0.95));
        let mut r = rng();
        let n = 10_000;
        let biased =
            (0..n).filter(|_| m.sample(&w, &mut r) == serde_json::json!("No")).count() as f64;
        assert!(biased / n as f64 > 0.9);
    }

    #[test]
    fn compare_follows_bradley_terry_for_able_worker() {
        let m = AnswerModel::Compare { p_first: 0.8 };
        let w = worker(1.0);
        let mut r = rng();
        let n = 20_000;
        let firsts =
            (0..n).filter(|_| m.sample(&w, &mut r) == serde_json::json!("first")).count() as f64;
        let emp = firsts / n as f64;
        assert!((emp - 0.8).abs() < 0.02, "empirical p_first {emp}");
    }

    #[test]
    fn compare_spammer_is_coin_flip() {
        let m = AnswerModel::Compare { p_first: 0.95 };
        let w = worker(0.0); // never perceives: pure coin
        let mut r = rng();
        let n = 20_000;
        let firsts =
            (0..n).filter(|_| m.sample(&w, &mut r) == serde_json::json!("first")).count() as f64;
        let emp = firsts / n as f64;
        assert!((emp - 0.5).abs() < 0.02, "empirical p_first {emp}");
    }

    #[test]
    fn match_model_flips_with_error() {
        let m = AnswerModel::Match { is_match: true, ambiguity: 0.0 };
        let w = worker(0.7);
        let mut r = rng();
        let n = 20_000;
        let yes = (0..n).filter(|_| m.sample(&w, &mut r) == serde_json::json!(true)).count() as f64;
        let emp = yes / n as f64;
        assert!((emp - 0.7).abs() < 0.02, "empirical match accuracy {emp}");
    }

    #[test]
    fn fixed_model_constant() {
        let m = AnswerModel::Fixed { value: serde_json::json!({"a": 1}) };
        let w = worker(0.1);
        let mut r = rng();
        assert_eq!(m.sample(&w, &mut r), serde_json::json!({"a": 1}));
    }

    #[test]
    fn effective_accuracy_bounds() {
        assert_eq!(effective_accuracy(0.9, 0.0, 2), 0.9);
        assert_eq!(effective_accuracy(0.9, 1.0, 2), 0.5);
        assert!(effective_accuracy(0.9, 0.5, 2) > 0.5);
        assert!(effective_accuracy(0.9, 0.5, 2) < 0.9);
        // Multiclass chance floor.
        assert!((effective_accuracy(1.0, 1.0, 4) - 0.25).abs() < 1e-12);
    }
}
