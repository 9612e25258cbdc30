//! Integration tests: operators over generated workloads and simulated
//! crowds — the full stack (datagen → simjoin → platform → core →
//! operators → quality) in one breath.

use reprowd::datagen::{comparison_probability, ErConfig, ErCorpus, RankingConfig, RankingDataset};
use reprowd::operators::join::transitive::PairOrdering;
use reprowd::platform::{CrowdPlatform, FailingPlatform, SimConfig, SimPlatform, WorkerPool};
use reprowd::prelude::*;
use std::sync::Arc;

fn ctx(platform: SimPlatform) -> reprowd::core::CrowdContext {
    reprowd::core::CrowdContext::new(
        Arc::new(platform) as Arc<dyn CrowdPlatform>,
        Arc::new(MemoryStore::new()),
    )
    .unwrap()
}

fn er_corpus(seed: u64) -> (ErCorpus, Vec<String>, Vec<usize>) {
    let corpus = ErCorpus::generate(&ErConfig {
        n_entities: 30,
        min_dups: 2,
        max_dups: 3,
        typo_p: 0.1,
        abbr_p: 0.05,
        drop_p: 0.02,
        shuffle_p: 0.1,
        seed,
    });
    let texts = corpus.texts();
    let clusters = corpus.truth_clusters();
    (corpus, texts, clusters)
}

fn match_oracle(entities: Vec<usize>, ambiguity: f64) -> impl Fn(usize, usize, &mut Value) {
    move |i, j, obj: &mut Value| {
        obj["_sim"] = val!({
            "kind": "match",
            "is_match": entities[i] == entities[j],
            "ambiguity": ambiguity,
        });
    }
}

#[test]
fn crowder_hits_high_f1_on_generated_corpus() {
    let (corpus, texts, clusters) = er_corpus(101);
    let cc = ctx(SimPlatform::quick(7, 0.95, 101));
    let mut cfg = CrowdErConfig::new("er-int");
    cfg.threshold = 0.35;
    let out = crowder_join(&cc, &texts, &cfg, match_oracle(clusters, 0.1)).unwrap();
    let (p, r, f1) = pairwise_prf(&out.matched, &corpus.true_pairs());
    assert!(p > 0.9, "precision {p}");
    assert!(r > 0.6, "recall {r} (bounded by machine-pass pruning)");
    assert!(f1 > 0.75, "f1 {f1}");
}

#[test]
fn lower_threshold_buys_recall_with_more_crowd_cost() {
    let (corpus, texts, clusters) = er_corpus(102);
    let mut results = Vec::new();
    for (i, threshold) in [0.25, 0.45, 0.65].into_iter().enumerate() {
        let cc = ctx(SimPlatform::quick(7, 0.95, 102));
        let mut cfg = CrowdErConfig::new(&format!("er-th-{i}"));
        cfg.threshold = threshold;
        let out = crowder_join(&cc, &texts, &cfg, match_oracle(clusters.clone(), 0.05)).unwrap();
        let (_, recall, _) = pairwise_prf(&out.matched, &corpus.true_pairs());
        results.push((out.n_crowd_reviewed, recall));
    }
    // Cost decreases with threshold; recall does not increase.
    assert!(results[0].0 >= results[1].0 && results[1].0 >= results[2].0, "{results:?}");
    assert!(results[0].1 >= results[2].1 - 1e-9, "{results:?}");
}

#[test]
fn transitive_join_saves_questions_and_matches_crowder_quality() {
    let (corpus, texts, clusters) = er_corpus(103);
    let cc1 = ctx(SimPlatform::quick(7, 0.98, 103));
    let mut tcfg = TransitiveConfig::new("tj-int");
    tcfg.threshold = 0.35;
    let t = transitive_join(&cc1, &texts, &tcfg, match_oracle(clusters.clone(), 0.05)).unwrap();

    let cc2 = ctx(SimPlatform::quick(7, 0.98, 103));
    let mut ccfg = CrowdErConfig::new("er-int2");
    ccfg.threshold = 0.35;
    let c = crowder_join(&cc2, &texts, &ccfg, match_oracle(clusters, 0.05)).unwrap();

    assert!(
        t.asked.len() < c.n_crowd_reviewed,
        "transitivity saved nothing: {} vs {}",
        t.asked.len(),
        c.n_crowd_reviewed
    );
    let (_, _, f1_t) = pairwise_prf(&t.matched, &corpus.true_pairs());
    let (_, _, f1_c) = pairwise_prf(&c.matched, &corpus.true_pairs());
    assert!(
        (f1_t - f1_c).abs() < 0.1,
        "transitive join quality drifted: {f1_t} vs {f1_c}"
    );
}

#[test]
fn similarity_ordering_beats_adversarial_ordering() {
    let (_, texts, clusters) = er_corpus(104);
    let asked = |ordering: PairOrdering, name: &str| {
        let cc = ctx(SimPlatform::quick(7, 0.98, 104));
        let mut cfg = TransitiveConfig::new(name);
        cfg.threshold = 0.35;
        cfg.ordering = ordering;
        transitive_join(&cc, &texts, &cfg, match_oracle(clusters.clone(), 0.05))
            .unwrap()
            .asked
            .len()
    };
    let desc = asked(PairOrdering::SimilarityDesc, "tj-d");
    let asc = asked(PairOrdering::SimilarityAsc, "tj-a");
    assert!(desc <= asc, "desc {desc} > asc {asc}");
}

#[test]
fn crowd_sort_recovers_ranking_with_strong_crowd() {
    let data = RankingDataset::generate(&RankingConfig { n_items: 10, score_range: 10.0, seed: 9 });
    let cc = ctx(SimPlatform::quick(7, 0.98, 105));
    let scores = data.scores.clone();
    let out = crowd_sort(
        &cc,
        &data.items,
        &CrowdSortConfig::new("sort-int", "Better?"),
        move |i, j, obj| {
            obj["_sim"] = val!({
                "kind": "compare",
                "p_first": comparison_probability(scores[i], scores[j], 0.3),
            });
        },
    )
    .unwrap();
    // Spearman-ish check: the top-3 of the crowd order are the true top-3.
    let true_rank = data.true_ranking();
    let top: std::collections::HashSet<usize> = out.order[..3].iter().copied().collect();
    let true_top: std::collections::HashSet<usize> = true_rank[..3].iter().copied().collect();
    assert_eq!(top, true_top, "crowd {:?} vs truth {:?}", out.order, true_rank);
}

#[test]
fn ds_beats_mv_on_biased_worker_pool_end_to_end() {
    // Pool: 2 good workers + 3 yes-biased workers; DS should learn the bias
    // from raw task runs collected through the full pipeline.
    let pool = WorkerPool::uniform(2, 0.92).with_biased(3, 0, 0.8, 0.75);
    let platform = SimPlatform::new(SimConfig::new(pool, 106));
    let cc = ctx(platform);

    let n = 120;
    let items: Vec<Value> = (0..n)
        .map(|i| {
            val!({
                "id": i,
                "_sim": {"kind": "label", "truth": (i % 2), "labels": ["Yes", "No"], "difficulty": 0.15}
            })
        })
        .collect();
    let truth: Vec<usize> = (0..n).map(|i| i % 2).collect();

    let cd = cc
        .crowddata("ds-vs-mv")
        .unwrap()
        .data(items)
        .unwrap()
        .presenter(Presenter::image_label("Q?", &["Yes", "No"]))
        .unwrap()
        .publish(5)
        .unwrap()
        .collect()
        .unwrap()
        .majority_vote()
        .unwrap()
        .dawid_skene(&reprowd::quality::DsConfig::default())
        .unwrap();

    let score = |col: &str| {
        let vals = cd.column(col).unwrap();
        vals.iter()
            .zip(&truth)
            .filter(|(v, &t)| v.as_str() == Some(if t == 0 { "Yes" } else { "No" }))
            .count() as f64
            / n as f64
    };
    let mv = score("mv");
    let ds = score("ds");
    assert!(ds >= mv, "DS ({ds}) lost to MV ({mv})");
    // Ceiling: two 86%-effective good workers + weakly-informative biased
    // majority caps fused accuracy around 0.86; 0.8 is the robust floor.
    assert!(ds > 0.8, "DS accuracy {ds}");
}

#[test]
fn crowd_label_with_gold_calibration_weights() {
    // Calibrate workers on gold items, then weighted-vote the rest.
    let pool = WorkerPool::uniform(2, 0.95).with_biased(2, 0, 0.9, 0.6);
    let cc = ctx(SimPlatform::new(SimConfig::new(pool, 107)));
    let n = 60;
    let items: Vec<Value> = (0..n)
        .map(|i| {
            val!({
                "id": i,
                "_sim": {"kind": "label", "truth": (i % 2), "labels": ["Yes", "No"], "difficulty": 0.1}
            })
        })
        .collect();
    let truth: Vec<usize> = (0..n).map(|i| i % 2).collect();

    let cd = cc
        .crowddata("gold-cal")
        .unwrap()
        .data(items)
        .unwrap()
        .presenter(Presenter::image_label("Q?", &["Yes", "No"]))
        .unwrap()
        .publish(4)
        .unwrap()
        .collect()
        .unwrap();

    // First 20 items serve as gold.
    let (matrix, _) = cd.vote_matrix().unwrap();
    let gold: std::collections::HashMap<usize, usize> =
        (0..20).map(|i| (i, truth[i])).collect();
    let cal = reprowd::quality::GoldCalibration::from_gold(&matrix, &gold, 1.0);
    let weights = cal.log_odds_weights();

    let cd = cd.weighted_vote(&weights, 0.0).unwrap().majority_vote().unwrap();
    let score = |col: &str| {
        cd.column(col)
            .unwrap()
            .iter()
            .zip(&truth)
            .filter(|(v, &t)| v.as_str() == Some(if t == 0 { "Yes" } else { "No" }))
            .count() as f64
            / n as f64
    };
    assert!(
        score("wmv") >= score("mv"),
        "calibrated weights should not hurt: wmv {} vs mv {}",
        score("wmv"),
        score("mv")
    );
}

// ------------------------------------------------ transitive join pins

/// E7's corpus: 25 entities with 3–6 duplicates each, lots of transitivity.
fn e7_corpus() -> (Vec<String>, Vec<usize>) {
    let corpus = ErCorpus::generate(&ErConfig {
        n_entities: 25,
        min_dups: 3,
        max_dups: 6,
        seed: 707,
        ..ErConfig::default()
    });
    (corpus.texts(), corpus.truth_clusters())
}

fn e7_config(name: &str, ordering: PairOrdering) -> TransitiveConfig {
    let mut cfg = TransitiveConfig::new(name);
    cfg.threshold = 0.4;
    cfg.ordering = ordering;
    cfg
}

/// FNV-1a over every raw store cell, each part length-prefixed (the
/// digest `golden_lifecycle` pins).
fn scan_digest(db: &Arc<dyn Backend>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (k, v) in db.scan_prefix(b"").unwrap() {
        eat(&k);
        eat(&v);
    }
    h
}

#[derive(Debug, PartialEq, Eq)]
struct TransitivePin {
    asked: usize,
    deduced_positive: usize,
    deduced_negative: usize,
    matched: usize,
    stats: reprowd::core::crowddata::RunStats,
    api_calls: u64,
    scan_fnv: u64,
}

/// One transitive join over E7's corpus on a fresh crowd and database,
/// then a rerun on the same pair that must be free and change nothing.
fn transitive_pin(name: &str, ordering: PairOrdering, ambiguity: f64) -> TransitivePin {
    let (records, entities) = e7_corpus();
    let platform = Arc::new(SimPlatform::quick(9, 0.9, 77));
    let db: Arc<dyn Backend> = Arc::new(MemoryStore::new());
    let cc = reprowd::core::CrowdContext::new(
        Arc::clone(&platform) as Arc<dyn CrowdPlatform>,
        Arc::clone(&db),
    )
    .unwrap();
    let cfg = e7_config(name, ordering);
    let out = transitive_join(&cc, &records, &cfg, match_oracle(entities.clone(), ambiguity))
        .unwrap();
    let pin = TransitivePin {
        asked: out.asked.len(),
        deduced_positive: out.deduced_positive,
        deduced_negative: out.deduced_negative,
        matched: out.matched.len(),
        stats: out.stats,
        api_calls: platform.api_calls(),
        scan_fnv: scan_digest(&db),
    };

    let rerun = transitive_join(&cc, &records, &cfg, match_oracle(entities, ambiguity)).unwrap();
    assert_eq!((&rerun.asked, &rerun.matched), (&out.asked, &out.matched));
    assert_eq!(platform.api_calls(), pin.api_calls, "rerun must issue zero crowd calls");
    assert_eq!(rerun.stats.tasks_published, 0);
    assert_eq!(rerun.stats.results_reused, pin.asked as u64);
    assert_eq!(scan_digest(&db), pin.scan_fnv, "rerun must not change a stored cell");
    pin
}

/// Recorded values of two transitive joins over E7's corpus: the question
/// sequence's outcome, the accounting, every platform call and every stored
/// cell. Any change to how the join asks, deduces or caches shows up here.
#[test]
fn golden_transitive_join() {
    let stats = |n: u64| reprowd::core::crowddata::RunStats {
        tasks_published: n,
        results_collected: n,
        ..Default::default()
    };
    assert_eq!(
        transitive_pin("tj-golden-desc", PairOrdering::SimilarityDesc, 0.05),
        TransitivePin {
            asked: 70,
            deduced_positive: 44,
            deduced_negative: 5,
            matched: 111,
            stats: stats(70),
            api_calls: 141,
            scan_fnv: 0xbc0808bb443b8b54,
        }
    );
    assert_eq!(
        transitive_pin("tj-golden-random", PairOrdering::Random(7), 0.4),
        TransitivePin {
            asked: 71,
            deduced_positive: 38,
            deduced_negative: 10,
            matched: 99,
            stats: stats(71),
            api_calls: 143,
            scan_fnv: 0x82e3e13a09579601,
        }
    );
}

/// A client crash partway through the question sequence costs nothing on
/// rerun: the asked pairs are served from the store, the crashed question's
/// task is reused, and the join ends exactly where a crash-free run does.
#[test]
fn crashed_transitive_join_resumes_mid_sequence() {
    let (records, entities) = e7_corpus();
    let cfg = e7_config("tj-crash", PairOrdering::Random(7));
    let oracle = || match_oracle(entities.clone(), 0.4);

    let clean = transitive_join(&ctx(SimPlatform::quick(9, 0.9, 79)), &records, &cfg, oracle())
        .unwrap();

    // One call for the project, then a publish and a fetch per question:
    // budget 59 runs out on question 30's publish, budget 60 on its fetch.
    assert!(clean.asked.len() > 30, "the crash must land mid-sequence");
    for budget in [59, 60] {
        let inner = Arc::new(SimPlatform::quick(9, 0.9, 79));
        let failing = Arc::new(FailingPlatform::new(Arc::clone(&inner), budget));
        let cc = reprowd::core::CrowdContext::new(
            Arc::clone(&failing) as Arc<dyn CrowdPlatform>,
            Arc::new(MemoryStore::new()),
        )
        .unwrap();
        let crashed = transitive_join(&cc, &records, &cfg, oracle());
        assert!(crashed.is_err(), "budget {budget} must run out");

        failing.reset_budget(u64::MAX);
        let resumed = transitive_join(&cc, &records, &cfg, oracle()).unwrap();
        assert_eq!(resumed.asked, clean.asked, "budget {budget}");
        assert_eq!(resumed.matched, clean.matched, "budget {budget}");
        assert_eq!(resumed.clusters, clean.clusters, "budget {budget}");
        let s = resumed.stats;
        assert!(s.tasks_reused > 0, "budget {budget}: {s:?}");
        assert_eq!(s.tasks_published + s.tasks_reused, resumed.asked.len() as u64, "{s:?}");
    }
}
