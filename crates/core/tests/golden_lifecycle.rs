//! Golden pins of the chunk lifecycle, classic and streamed.
//!
//! One scenario over a seeded `SimPlatform` and a shared `MemoryStore`,
//! at batch size 5:
//!
//! 1. *Setup* (classic, first platform): the first 10 rows are published
//!    and collected — a cached prefix — then `extend_data` adds 8 more
//!    rows that are published but never collected.
//! 2. *Run under test* (second platform, same database — the platform
//!    restarted and lost every task): all 25 rows go through either the
//!    classic `publish(2).collect()` chain or `run_stream` with
//!    redundancy 2. The first 10 rows are served from the cache, the 8
//!    lost tasks are republished under their stored redundancy (3), the
//!    last 7 rows are fresh. Rows 20..25 repeat rows 0..5, so the
//!    duplicate-suffix keys are exercised too.
//!
//! Each schedule runs at in-flight depths 1 and 4 and must reproduce four
//! recorded values exactly: the FNV-1a digest of every raw store cell,
//! both platforms' `api_calls`, both contexts' `BatchMetricsSnapshot`s,
//! and the run's `RunStats`. Any change to the call sequence, cell bytes,
//! metering, or accounting of either schedule shows up here.

use reprowd_core::context::CrowdContext;
use reprowd_core::crowddata::RunStats;
use reprowd_core::exec::{BatchMetricsSnapshot, ExecutionConfig};
use reprowd_core::pipeline::{run_stream, StreamSpec};
use reprowd_core::presenter::Presenter;
use reprowd_core::value::Value;
use reprowd_platform::{CrowdPlatform, SimPlatform};
use reprowd_storage::{Backend, MemoryStore};
use std::sync::Arc;

const BATCH: usize = 5;
const EXPERIMENT: &str = "golden";

fn object(i: usize) -> Value {
    let i = i % 20; // rows 20.. repeat rows 0..
    serde_json::json!({
        "url": format!("img{i}.jpg"),
        "_sim": {"kind": "label", "truth": i % 2, "labels": ["Yes", "No"], "difficulty": 0.2}
    })
}

fn objects(range: std::ops::Range<usize>) -> Vec<Value> {
    range.map(object).collect()
}

fn presenter() -> Presenter {
    Presenter::image_label("Is this a cat?", &["Yes", "No"])
}

fn ctx(seed: u64, depth: usize, db: &Arc<dyn Backend>) -> (CrowdContext, Arc<SimPlatform>) {
    let platform = Arc::new(SimPlatform::quick(6, 0.8, seed));
    let cc = CrowdContext::with_config(
        Arc::clone(&platform) as Arc<dyn CrowdPlatform>,
        Arc::clone(db),
        ExecutionConfig::with_batch_size(BATCH).with_inflight_batches(depth),
    )
    .unwrap();
    (cc, platform)
}

/// FNV-1a over every `(key, value)` cell, each part length-prefixed.
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
struct Outcome {
    scan_fnv: u64,
    api_calls: (u64, u64),
    metrics: (BatchMetricsSnapshot, BatchMetricsSnapshot),
    stats: RunStats,
}

fn run(streamed: bool, depth: usize) -> Outcome {
    let db: Arc<dyn Backend> = Arc::new(MemoryStore::new());
    let (cc1, p1) = ctx(31, depth, &db);
    let _ = cc1
        .crowddata(EXPERIMENT)
        .unwrap()
        .data(objects(0..10))
        .unwrap()
        .presenter(presenter())
        .unwrap()
        .publish(3)
        .unwrap()
        .collect()
        .unwrap();
    let _ = cc1
        .crowddata(EXPERIMENT)
        .unwrap()
        .data(objects(0..10))
        .unwrap()
        .extend_data(objects(10..18))
        .unwrap()
        .presenter(presenter())
        .unwrap()
        .publish(3)
        .unwrap();

    let (cc2, p2) = ctx(32, depth, &db);
    let stats = if streamed {
        let spec = StreamSpec {
            experiment: EXPERIMENT.into(),
            presenter: presenter(),
            n_assignments: 2,
        };
        let mut next = 0usize;
        let report = run_stream(&cc2, &spec, objects(0..25).into_iter(), |row| {
            assert_eq!(row.index, next, "rows reach the sink in input order");
            next += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(next, 25);
        report.stats
    } else {
        cc2.crowddata(EXPERIMENT)
            .unwrap()
            .data(objects(0..10))
            .unwrap()
            .extend_data(objects(10..25))
            .unwrap()
            .presenter(presenter())
            .unwrap()
            .publish(2)
            .unwrap()
            .collect()
            .unwrap()
            .run_stats()
    };
    Outcome {
        scan_fnv: scan_digest(&db),
        api_calls: (p1.api_calls(), p2.api_calls()),
        metrics: (cc1.batch_metrics(), cc2.batch_metrics()),
        stats,
    }
}

fn metrics(publish: (u64, u64), fetch: (u64, u64), probe: (u64, u64)) -> BatchMetricsSnapshot {
    BatchMetricsSnapshot {
        publish_calls: publish.0,
        publish_rows: publish.1,
        fetch_calls: fetch.0,
        fetch_rows: fetch.1,
        probe_calls: probe.0,
        probe_rows: probe.1,
    }
}

fn check_both_depths(streamed: bool, expected: &Outcome) {
    for depth in [1usize, 4] {
        let got = run(streamed, depth);
        assert_eq!(&got, expected, "streamed={streamed} depth {depth}");
    }
}

#[test]
fn classic_lifecycle_matches_the_golden_pins() {
    check_both_depths(
        false,
        &Outcome {
            scan_fnv: 15702535720095269389,
            api_calls: (7, 8),
            metrics: (
                metrics((4, 18), (2, 10), (2, 10)),
                metrics((4, 15), (3, 15), (3, 15)),
            ),
            stats: RunStats {
                tasks_published: 7,
                tasks_reused: 18,
                results_collected: 15,
                results_reused: 10,
                tasks_republished: 8,
            },
        },
    );
}

#[test]
fn streamed_lifecycle_matches_the_golden_pins() {
    check_both_depths(
        true,
        &Outcome {
            scan_fnv: 15866789610452721640,
            api_calls: (7, 7),
            metrics: (
                metrics((4, 18), (2, 10), (2, 10)),
                metrics((3, 15), (3, 15), (2, 8)),
            ),
            stats: RunStats {
                tasks_published: 7,
                tasks_reused: 18,
                results_collected: 15,
                results_reused: 10,
                tasks_republished: 8,
            },
        },
    );
}
