//! Integration tests of the batched publish/collect pipeline: batch size
//! is a pure performance knob (bit-identical results at every size, batch
//! size 1 = the historical per-row pipeline, API-call counts included),
//! and batching collapses platform round-trips by ~batch_size×.

use reprowd::core::{BatchMetricsSnapshot, CrowdContext, ExecutionConfig};
use reprowd::platform::{CrowdPlatform, SimPlatform};
use reprowd::prelude::*;
use std::sync::Arc;

fn objects(n: usize) -> Vec<Value> {
    (0..n)
        .map(|i| {
            val!({
                "url": format!("img{i}.jpg"),
                "_sim": {"kind": "label", "truth": (i % 2), "labels": ["Yes", "No"], "difficulty": 0.1}
            })
        })
        .collect()
}

/// A fresh in-memory context with the given batch size over a sim crowd
/// seeded identically across calls, so runs are comparable byte-for-byte.
fn ctx(batch_size: usize, seed: u64) -> (CrowdContext, Arc<SimPlatform>) {
    let platform = Arc::new(SimPlatform::quick(7, 0.9, seed));
    let cc = CrowdContext::with_config(
        Arc::clone(&platform) as Arc<dyn CrowdPlatform>,
        Arc::new(MemoryStore::new()),
        ExecutionConfig::with_batch_size(batch_size),
    )
    .unwrap();
    (cc, platform)
}

fn pipeline(cc: &CrowdContext, n: usize) -> CrowdData {
    cc.crowddata("batching")
        .unwrap()
        .data(objects(n))
        .unwrap()
        .presenter(Presenter::image_label("Is this a cat?", &["Yes", "No"]))
        .unwrap()
        .publish(3)
        .unwrap()
        .collect()
        .unwrap()
        .majority_vote()
        .unwrap()
}

/// A batch larger than the task count degenerates to one bulk publish and
/// one bulk fetch: three platform round-trips total, project included.
#[test]
fn batch_larger_than_task_count_is_one_round_trip_each_way() {
    let (cc, platform) = ctx(1000, 5);
    let cd = pipeline(&cc, 10);
    assert_eq!(cd.run_stats().tasks_published, 10);
    assert_eq!(cd.run_stats().results_collected, 10);
    assert_eq!(platform.api_calls(), 3, "create + 1 bulk publish + 1 bulk fetch");
    let m = cc.batch_metrics();
    assert_eq!(
        m,
        BatchMetricsSnapshot {
            publish_calls: 1,
            publish_rows: 10,
            fetch_calls: 1,
            fetch_rows: 10,
            // The collect status pass probes completion once per batch;
            // probes are free platform-side but metered here.
            probe_calls: 1,
            probe_rows: 10
        }
    );
    assert_eq!(m.rows_per_publish_call(), 10.0);
}

/// Batch size 1 must reproduce the historical per-row pipeline exactly:
/// one platform call per row each way, and byte-identical cells to what
/// any other batch size produces.
#[test]
fn batch_size_one_reproduces_per_row_pipeline_bit_identically() {
    let n = 24;
    let (cc1, p1) = ctx(1, 9);
    let (cc100, p100) = ctx(100, 9);
    let per_row = pipeline(&cc1, n);
    let batched = pipeline(&cc100, n);
    // Per-row accounting: 1 create + n publishes + n fetches.
    assert_eq!(p1.api_calls(), 1 + 2 * n as u64);
    assert_eq!(p100.api_calls(), 3);
    let m1 = cc1.batch_metrics();
    assert_eq!(m1.publish_calls, n as u64);
    assert_eq!(m1.rows_per_publish_call(), 1.0);
    // Same crowd seed, same publish order: every persisted cell matches.
    for col in ["task", "result", "mv"] {
        assert_eq!(
            per_row.column(col).unwrap(),
            batched.column(col).unwrap(),
            "column {col} must not depend on batch size"
        );
    }
}

/// The ISSUE's acceptance criterion: publishing + collecting n=1000 tasks
/// with batch size 100 issues ≤ 5% of the platform calls the per-row path
/// issues, with bit-identical collected columns.
#[test]
fn n1000_batch100_issues_under_5_percent_of_per_row_calls() {
    let n = 1000;
    let (cc_row, p_row) = ctx(1, 1234);
    let (cc_bat, p_bat) = ctx(100, 1234);
    let per_row = pipeline(&cc_row, n);
    let batched = pipeline(&cc_bat, n);

    let row_calls = p_row.api_calls(); // 1 + 1000 + 1000
    let bat_calls = p_bat.api_calls(); // 1 + 10 + 10
    assert_eq!(row_calls, 2001);
    assert_eq!(bat_calls, 21);
    assert!(
        (bat_calls as f64) <= 0.05 * row_calls as f64,
        "batched path must issue ≤5% of per-row calls ({bat_calls} vs {row_calls})"
    );

    // Round-trip accounting through the context's batch metrics.
    let m = cc_bat.batch_metrics();
    assert_eq!(m.publish_calls, 10);
    assert_eq!(m.fetch_calls, 10);
    assert_eq!(m.rows_per_publish_call(), 100.0);
    assert_eq!(m.rows_per_fetch_call(), 100.0);

    // Bit-identical collected columns (and therefore identical aggregates).
    assert_eq!(per_row.column("result").unwrap(), batched.column("result").unwrap());
    assert_eq!(per_row.column("mv").unwrap(), batched.column("mv").unwrap());
}

/// An uneven split (n not divisible by batch size) publishes a short tail
/// batch and still accounts every row exactly once.
#[test]
fn uneven_tail_batch_accounts_every_row() {
    let (cc, platform) = ctx(4, 6);
    let cd = pipeline(&cc, 10); // 4 + 4 + 2
    assert_eq!(cd.run_stats().tasks_published, 10);
    let m = cc.batch_metrics();
    assert_eq!(m.publish_calls, 3);
    assert_eq!(m.publish_rows, 10);
    assert_eq!(m.fetch_calls, 3);
    assert_eq!(platform.api_calls(), 7, "create + 3 bulk publishes + 3 bulk fetches");
}

/// Reruns stay free under batching: the cache pass never issues a
/// round-trip for cached rows, so the metrics do not move either.
#[test]
fn cached_rerun_issues_zero_round_trips() {
    let (cc, platform) = ctx(50, 8);
    let first = pipeline(&cc, 120);
    let calls = platform.api_calls();
    let metrics = cc.batch_metrics();
    let second = pipeline(&cc, 120);
    assert_eq!(platform.api_calls(), calls, "rerun must be platform-free");
    assert_eq!(cc.batch_metrics(), metrics, "rerun must issue zero batched round-trips");
    assert_eq!(first.column("mv").unwrap(), second.column("mv").unwrap());
    assert_eq!(second.run_stats().tasks_reused, 120);
}

/// `with_batch_size` re-tunes a context without losing shared state, and
/// rejects a zero batch size.
#[test]
fn with_batch_size_retunes_and_validates() {
    let (cc, _) = ctx(100, 3);
    assert_eq!(cc.batch_size(), 100);
    let tuned = cc.with_batch_size(7).unwrap();
    assert_eq!(tuned.batch_size(), 7);
    assert_eq!(cc.batch_size(), 100, "original context keeps its size");
    assert!(cc.with_batch_size(0).is_err());
    // The tuned context sees the same database: a run through `cc` is a
    // free rerun through `tuned`, and they share one metrics ledger.
    let _ = pipeline(&cc, 8);
    let before = tuned.batch_metrics();
    assert_eq!(before, cc.batch_metrics());
    let cd = pipeline(&tuned, 8);
    assert_eq!(cd.run_stats().tasks_reused, 8);
    assert_eq!(tuned.batch_metrics(), before);
}
