//! E15 — the pipelined execution engine: in-flight depth vs wall-clock on
//! a latency-bound platform, bit-identical results at every depth, and the
//! streaming operators' bounded-memory guarantee.
//!
//! What it pins:
//!
//! * **Latency overlap** — against a [`LatencyPlatform`] charging a fixed
//!   round-trip time per call, publish+collect at n=1000 with 4 batches in
//!   flight must be ≥ 2× faster end-to-end than the sequential depth-1
//!   engine (the smoke gate is relaxed for scheduler noise on tiny CI
//!   workloads). Round-trips overlap; their effects stay ordered.
//! * **Depth is a pure performance knob** — output columns are
//!   bit-identical, and the platform's API-call count and the client's
//!   round-trip metrics are unchanged, at every depth — for the classic
//!   path *and* the streamed operator path.
//! * **Bounded streaming memory** — `crowder_join` over 10⁴ records
//!   streams its machine-pass candidates into the crowd pass: the peak
//!   number of pairs resident in the pipeline stays bounded by the
//!   in-flight window (batch × depth), never by the candidate count — no
//!   O(n²) pair vector exists at any point.
//!
//! Writes `BENCH_E15.json` at the workspace root in full mode. Smoke mode
//! (`REPROWD_E15_SMOKE=1`, used by CI) shrinks the workload and relaxes
//! only the wall-clock ratio.

use reprowd_bench::{banner, label_objects, table, timed};
use reprowd_core::exec::ExecutionConfig;
use reprowd_core::presenter::Presenter;
use reprowd_core::value::Value;
use reprowd_core::{CrowdContext, CrowdData};
use reprowd_datagen::{ErConfig, ErCorpus};
use reprowd_operators::join::crowder::{crowder_join, CrowdErConfig};
use reprowd_operators::pairwise_prf;
use reprowd_platform::{CrowdPlatform, LatencyPlatform, SimPlatform};
use reprowd_storage::MemoryStore;
use std::sync::Arc;
use std::time::Duration;

struct DepthRun {
    depth: usize,
    wall_ms: f64,
    api_calls: u64,
    round_trips: u64,
    speedup: f64,
}

fn latency_ctx(
    depth: usize,
    batch: usize,
    rtt: Duration,
    seed: u64,
) -> (CrowdContext, Arc<LatencyPlatform<SimPlatform>>) {
    let platform = Arc::new(LatencyPlatform::new(
        Arc::new(SimPlatform::quick(7, 0.9, seed)),
        rtt,
    ));
    let cc = CrowdContext::with_config(
        Arc::clone(&platform) as Arc<dyn CrowdPlatform>,
        Arc::new(MemoryStore::new()),
        ExecutionConfig::with_batch_size(batch).with_inflight_batches(depth),
    )
    .expect("latency context");
    (cc, platform)
}

fn publish_collect(cc: &CrowdContext, n: usize) -> CrowdData {
    cc.crowddata("e15")
        .unwrap()
        .data(label_objects(n, 0.1))
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

fn write_json(
    path: &str,
    mode: &str,
    n: usize,
    batch: usize,
    rtt_ms: u64,
    runs: &[DepthRun],
    join: &str,
) {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"E15 pipelined execution engine\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!(
        "  \"workload\": {{\"rows\": {n}, \"batch_size\": {batch}, \"rtt_ms\": {rtt_ms}}},\n"
    ));
    out.push_str("  \"depth_sweep\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"inflight_batches\": {}, \"wall_ms\": {:.1}, \"api_calls\": {}, \
             \"wire_round_trips\": {}, \"speedup_vs_depth1\": {:.2}}}{}\n",
            r.depth,
            r.wall_ms,
            r.api_calls,
            r.round_trips,
            r.speedup,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"streamed_join\": {join}\n"));
    out.push_str("}\n");
    std::fs::write(path, out).expect("write BENCH_E15.json");
}

fn main() {
    let smoke = std::env::var_os("REPROWD_E15_SMOKE").is_some();
    let (n, batch, rtt_ms, join_records, min_speedup) = if smoke {
        (240usize, 30usize, 4u64, 1_200usize, 1.5f64)
    } else {
        (1_000, 100, 8, 10_000, 2.0)
    };
    let rtt = Duration::from_millis(rtt_ms);
    banner(
        "E15",
        &format!(
            "Pipelined execution: depth sweep at n={n}, batch {batch}, {rtt_ms}ms RTT; \
             streamed CrowdER at {join_records} records{}",
            if smoke { " (SMOKE)" } else { "" }
        ),
        "ROADMAP 'make the pipeline async' + 'streaming operators'",
    );

    // ---- Phase A: classic publish/collect, depth sweep under latency.
    let mut runs: Vec<DepthRun> = Vec::new();
    let mut rows = Vec::new();
    let mut baseline: Option<(Vec<Value>, Vec<Value>, String)> = None;
    for depth in [1usize, 2, 4, 8] {
        let (cc, platform) = latency_ctx(depth, batch, rtt, 42);
        let (cd, wall_ms) = timed(|| publish_collect(&cc, n));
        let result = cd.column("result").unwrap();
        let mv = cd.column("mv").unwrap();
        let metrics = format!("{:?}", cc.batch_metrics());
        match &baseline {
            None => baseline = Some((result, mv, metrics)),
            Some((r1, m1, me1)) => {
                assert_eq!(&result, r1, "depth {depth}: result column diverged");
                assert_eq!(&mv, m1, "depth {depth}: mv column diverged");
                assert_eq!(&metrics, me1, "depth {depth}: batch metrics diverged");
            }
        }
        let speedup = runs.first().map_or(1.0, |d1: &DepthRun| d1.wall_ms / wall_ms);
        runs.push(DepthRun {
            depth,
            wall_ms,
            api_calls: platform.api_calls(),
            round_trips: platform.round_trips(),
            speedup,
        });
        let r = runs.last().unwrap();
        rows.push(vec![
            depth.to_string(),
            format!("{:.0}", r.wall_ms),
            r.api_calls.to_string(),
            r.round_trips.to_string(),
            format!("{:.2}x", r.speedup),
            "true".to_string(),
        ]);
    }
    table(
        &["in-flight", "wall ms", "api calls", "wire RTs", "vs depth 1", "identical"],
        &rows,
    );
    assert!(
        runs.iter().all(|r| r.api_calls == runs[0].api_calls),
        "API-call counts must not depend on depth"
    );
    assert!(
        runs.iter().all(|r| r.round_trips == runs[0].round_trips),
        "wire round-trip counts must not depend on depth"
    );
    let depth4 = runs.iter().find(|r| r.depth == 4).expect("depth 4 ran");
    assert!(
        depth4.speedup >= min_speedup,
        "depth 4 must be >= {min_speedup}x faster than sequential under {rtt_ms}ms RTT \
         (got {:.2}x: {:.0}ms vs {:.0}ms)",
        depth4.speedup,
        runs[0].wall_ms,
        depth4.wall_ms
    );

    // ---- Phase B: streamed CrowdER join — bounded pair memory at scale.
    let corpus = ErCorpus::generate(&ErConfig {
        n_entities: join_records * 10 / 22, // ~2.2 duplicates per entity
        min_dups: 1,
        max_dups: 3,
        seed: 1515,
        ..ErConfig::default()
    });
    let records = corpus.texts();
    let truth = corpus.true_pairs();
    let entities = corpus.truth_clusters();
    let all_pairs = records.len() * (records.len() - 1) / 2;
    let decorate = {
        let entities = entities.clone();
        move |a: usize, b: usize, obj: &mut Value| {
            obj["_sim"] = serde_json::json!({
                "kind": "match",
                "is_match": entities[a] == entities[b],
                "ambiguity": 0.05,
            });
        }
    };
    let platform = Arc::new(SimPlatform::quick(7, 0.95, 66));
    let join_depth = 4usize;
    let cc = CrowdContext::with_config(
        Arc::clone(&platform) as Arc<dyn CrowdPlatform>,
        Arc::new(MemoryStore::new()),
        ExecutionConfig::with_batch_size(batch).with_inflight_batches(join_depth),
    )
    .unwrap();
    let mut cfg = CrowdErConfig::new("e15-er");
    cfg.threshold = 0.3;
    let (out, join_ms) = timed(|| crowder_join(&cc, &records, &cfg, &decorate).unwrap());
    let (p, r, f1) = pairwise_prf(&out.matched, &truth);
    // Each pipeline worker commits its chunk before it claims another, so
    // at most `depth` chunks are claimed but not yet committed.
    let window_bound = join_depth * batch;
    println!(
        "\nstreamed CrowdER: {} records, {} candidate pairs ({:.3}% of {} total), \
         {} crowd-reviewed, peak {} pairs in flight (bound {}), P/R/F1 = \
         {p:.3}/{r:.3}/{f1:.3}, {join_ms:.0} ms",
        records.len(),
        out.n_candidates,
        100.0 * out.n_candidates as f64 / all_pairs as f64,
        all_pairs,
        out.n_crowd_reviewed,
        out.peak_inflight_pairs,
        window_bound,
    );
    assert!(
        out.peak_inflight_pairs <= window_bound,
        "peak resident pairs {} exceeded the in-flight window bound {} — \
         the join is materializing candidates again",
        out.peak_inflight_pairs,
        window_bound
    );
    assert!(
        out.n_candidates < all_pairs / 10,
        "machine pass pruned almost nothing ({} of {all_pairs})",
        out.n_candidates
    );
    assert!(f1 > 0.8, "streamed join quality collapsed: F1 {f1:.3}");

    // ---- Phase C: streamed operators are depth-invariant too.
    let small: Vec<String> = records.iter().take(400.min(records.len())).cloned().collect();
    let run_at = |depth: usize| {
        let platform = Arc::new(SimPlatform::quick(7, 0.95, 77));
        let cc = CrowdContext::with_config(
            Arc::clone(&platform) as Arc<dyn CrowdPlatform>,
            Arc::new(MemoryStore::new()),
            ExecutionConfig::with_batch_size(25).with_inflight_batches(depth),
        )
        .unwrap();
        let mut cfg = CrowdErConfig::new("e15-depth");
        cfg.threshold = 0.3;
        let out = crowder_join(&cc, &small, &cfg, &decorate).unwrap();
        (out.matched, out.n_crowd_reviewed, platform.api_calls())
    };
    let sequential = run_at(1);
    for depth in [2usize, 4, 8] {
        assert_eq!(
            run_at(depth),
            sequential,
            "streamed join at depth {depth} diverged from sequential"
        );
    }
    println!(
        "streamed join depth sweep: identical matches and API calls at depths 1/2/4/8"
    );

    let join_json = format!(
        "{{\"records\": {}, \"candidates\": {}, \"crowd_reviewed\": {}, \
         \"peak_inflight_pairs\": {}, \"window_bound\": {}, \"f1\": {:.3}, \
         \"wall_ms\": {:.0}}}",
        records.len(),
        out.n_candidates,
        out.n_crowd_reviewed,
        out.peak_inflight_pairs,
        window_bound,
        f1,
        join_ms
    );
    if smoke {
        println!(
            "\nPASS (smoke): {:.2}x at depth 4 (>= {min_speedup}x), identical columns, \
             bounded streaming memory. JSON not rewritten.",
            depth4.speedup
        );
    } else {
        let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E15.json");
        write_json(json_path, "full", n, batch, rtt_ms, &runs, &join_json);
        println!(
            "\nPASS: {:.2}x at depth 4 (>= {min_speedup}x), identical columns and call \
             counts at every depth, bounded streaming memory; results recorded to \
             BENCH_E15.json",
            depth4.speedup
        );
    }
}
