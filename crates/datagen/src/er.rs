//! Entity-resolution corpus generator.
//!
//! Generates `n_entities` distinct base records, then emits 1..=k noisy
//! duplicates of each. The ground truth is the partition of records by the
//! entity they denote — exactly what CrowdER (E6) and the transitive join
//! (E7) are scored against.

use crate::text::{Perturber, CATEGORY_POOL, CITY_POOL, NAME_POOL};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt::Write;

/// Parameters of an ER corpus.
#[derive(Debug, Clone)]
pub struct ErConfig {
    /// Number of distinct real-world entities.
    pub n_entities: usize,
    /// Minimum duplicates per entity (≥ 1 = the clean record itself).
    pub min_dups: usize,
    /// Maximum duplicates per entity.
    pub max_dups: usize,
    /// Per-token typo probability in duplicates.
    pub typo_p: f64,
    /// Per-token abbreviation probability.
    pub abbr_p: f64,
    /// Per-token drop probability.
    pub drop_p: f64,
    /// Whole-record token-rotation probability.
    pub shuffle_p: f64,
    /// RNG seed — corpora are fully determined by config + seed.
    pub seed: u64,
}

impl Default for ErConfig {
    fn default() -> Self {
        ErConfig {
            n_entities: 100,
            min_dups: 1,
            max_dups: 3,
            typo_p: 0.15,
            abbr_p: 0.1,
            drop_p: 0.05,
            shuffle_p: 0.2,
            seed: 7,
        }
    }
}

/// One record of the corpus.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErRecord {
    /// Position in [`ErCorpus::records`].
    pub id: usize,
    /// The (possibly noisy) textual content.
    pub text: String,
    /// Ground-truth entity this record denotes.
    pub entity_id: usize,
}

/// A generated corpus plus its ground truth.
#[derive(Debug, Clone)]
pub struct ErCorpus {
    /// All records, duplicates interleaved in generation order.
    pub records: Vec<ErRecord>,
    /// Number of distinct entities.
    pub n_entities: usize,
}

impl ErCorpus {
    /// Generates a corpus from `config` (deterministic).
    pub fn generate(config: &ErConfig) -> Self {
        assert!(config.min_dups >= 1, "min_dups must be at least 1");
        assert!(config.max_dups >= config.min_dups, "max_dups < min_dups");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut records = Vec::new();
        let (mut base, mut perturber) = (String::new(), Perturber::default());
        for entity in 0..config.n_entities {
            base_record(&mut rng, entity, &mut base);
            let dups = rng.gen_range(config.min_dups..=config.max_dups);
            for d in 0..dups {
                let text = if d == 0 {
                    base.clone()
                } else {
                    perturber.perturb(
                        &mut rng,
                        &base,
                        config.typo_p,
                        config.abbr_p,
                        config.drop_p,
                        config.shuffle_p,
                    )
                };
                records.push(ErRecord { id: records.len(), text, entity_id: entity });
            }
        }
        ErCorpus { records, n_entities: config.n_entities }
    }

    /// All matching pairs `(i, j)`, `i < j`, under the ground truth.
    pub fn true_pairs(&self) -> Vec<(usize, usize)> {
        let mut by_entity: Vec<Vec<usize>> = vec![Vec::new(); self.n_entities];
        for r in &self.records {
            by_entity[r.entity_id].push(r.id);
        }
        let mut pairs = Vec::new();
        for members in by_entity {
            for i in 0..members.len() {
                for j in i + 1..members.len() {
                    pairs.push((members[i], members[j]));
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    /// The record texts, in id order (what the join operators consume).
    pub fn texts(&self) -> Vec<String> {
        self.records.iter().map(|r| r.text.clone()).collect()
    }

    /// Ground-truth cluster id per record, in id order.
    pub fn truth_clusters(&self) -> Vec<usize> {
        self.records.iter().map(|r| r.entity_id).collect()
    }
}

/// Writes a clean base record into `out`: "name name category city
/// unit<entity>".
fn base_record(rng: &mut StdRng, entity: usize, out: &mut String) {
    let n1 = NAME_POOL[rng.gen_range(0..NAME_POOL.len())];
    let n2 = NAME_POOL[rng.gen_range(0..NAME_POOL.len())];
    let city = CITY_POOL[rng.gen_range(0..CITY_POOL.len())];
    let cat = CATEGORY_POOL[rng.gen_range(0..CATEGORY_POOL.len())];
    // The entity ordinal keeps base records of distinct entities distinct
    // even when the word draw collides.
    out.clear();
    write!(out, "{n1} {n2} {cat} {city} unit{entity}").expect("writing to a String");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = ErConfig::default();
        let a = ErCorpus::generate(&cfg);
        let b = ErCorpus::generate(&cfg);
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn seed_changes_corpus() {
        let a = ErCorpus::generate(&ErConfig::default());
        let b = ErCorpus::generate(&ErConfig { seed: 8, ..ErConfig::default() });
        assert_ne!(a.records, b.records);
    }

    #[test]
    fn duplicate_counts_within_bounds() {
        let cfg = ErConfig { n_entities: 50, min_dups: 2, max_dups: 4, ..ErConfig::default() };
        let c = ErCorpus::generate(&cfg);
        let mut counts = vec![0usize; cfg.n_entities];
        for r in &c.records {
            counts[r.entity_id] += 1;
        }
        assert!(counts.iter().all(|&n| (2..=4).contains(&n)), "{counts:?}");
    }

    #[test]
    fn true_pairs_consistent_with_clusters() {
        let cfg = ErConfig { n_entities: 20, min_dups: 2, max_dups: 3, ..ErConfig::default() };
        let c = ErCorpus::generate(&cfg);
        let pairs = c.true_pairs();
        for &(i, j) in &pairs {
            assert_eq!(c.records[i].entity_id, c.records[j].entity_id);
            assert!(i < j);
        }
        // Count check: sum of C(k,2) per entity.
        let mut counts = vec![0usize; cfg.n_entities];
        for r in &c.records {
            counts[r.entity_id] += 1;
        }
        let expected: usize = counts.iter().map(|&k| k * (k - 1) / 2).sum();
        assert_eq!(pairs.len(), expected);
    }

    #[test]
    fn singleton_entities_have_no_pairs() {
        let cfg = ErConfig { n_entities: 10, min_dups: 1, max_dups: 1, ..ErConfig::default() };
        let c = ErCorpus::generate(&cfg);
        assert!(c.true_pairs().is_empty());
        assert_eq!(c.records.len(), 10);
    }

    #[test]
    fn records_never_empty() {
        let cfg = ErConfig {
            n_entities: 30,
            min_dups: 3,
            max_dups: 3,
            typo_p: 0.4,
            abbr_p: 0.3,
            drop_p: 0.3,
            shuffle_p: 0.5,
            ..ErConfig::default()
        };
        let c = ErCorpus::generate(&cfg);
        assert!(c.records.iter().all(|r| !r.text.trim().is_empty()));
    }

    #[test]
    #[should_panic(expected = "min_dups")]
    fn zero_min_dups_rejected() {
        ErCorpus::generate(&ErConfig { min_dups: 0, ..ErConfig::default() });
    }

    #[test]
    fn duplicates_stay_textually_similar() {
        // With mild noise, duplicates should share most tokens with their base.
        let cfg = ErConfig {
            n_entities: 40,
            min_dups: 2,
            max_dups: 2,
            typo_p: 0.1,
            abbr_p: 0.0,
            drop_p: 0.0,
            shuffle_p: 0.0,
            ..ErConfig::default()
        };
        let c = ErCorpus::generate(&cfg);
        let mut sims = Vec::new();
        for pair in c.true_pairs() {
            let a: std::collections::HashSet<&str> =
                c.records[pair.0].text.split_whitespace().collect();
            let b: std::collections::HashSet<&str> =
                c.records[pair.1].text.split_whitespace().collect();
            let inter = a.intersection(&b).count() as f64;
            let union = a.union(&b).count() as f64;
            sims.push(inter / union);
        }
        let mean = sims.iter().sum::<f64>() / sims.len() as f64;
        assert!(mean > 0.5, "duplicates too dissimilar: mean jaccard {mean}");
    }
}
