//! Property tests of the pipelined execution engine's central claim: the
//! in-flight depth is a **pure wall-clock knob**. For any experiment shape,
//! every depth must produce bit-identical columns, bit-identical raw cache
//! contents, identical `BatchMetrics`, and identical platform API-call
//! counts — both for the classic `publish`/`collect` path and for the
//! streaming runner.

use proptest::prelude::*;
use reprowd_core::context::CrowdContext;
use reprowd_core::exec::ExecutionConfig;
use reprowd_core::pipeline::{run_stream, StreamSpec, StreamedRow};
use reprowd_core::presenter::Presenter;
use reprowd_core::value::Value;
use reprowd_core::CrowdData;
use reprowd_platform::{CrowdPlatform, SimPlatform};
use reprowd_storage::MemoryStore;
use std::sync::Arc;

fn objects_strategy() -> impl Strategy<Value = Vec<(String, usize)>> {
    // (url, truth) pairs; small space so duplicate objects occur.
    prop::collection::vec(("img[a-d]{1,2}", 0usize..2), 1..40)
}

fn to_values(objs: &[(String, usize)]) -> Vec<Value> {
    objs.iter()
        .map(|(url, truth)| {
            serde_json::json!({
                "url": url,
                "_sim": {"kind": "label", "truth": truth, "labels": ["Yes", "No"], "difficulty": 0.0}
            })
        })
        .collect()
}

fn ctx(depth: usize, batch: usize, seed: u64) -> (CrowdContext, Arc<SimPlatform>) {
    let platform = Arc::new(SimPlatform::quick(6, 0.9, seed));
    let cc = CrowdContext::with_config(
        Arc::clone(&platform) as Arc<dyn CrowdPlatform>,
        Arc::new(MemoryStore::new()),
        ExecutionConfig::with_batch_size(batch).with_inflight_batches(depth),
    )
    .unwrap();
    (cc, platform)
}

fn classic(cc: &CrowdContext, objects: Vec<Value>, redundancy: u32) -> CrowdData {
    cc.crowddata("prop")
        .unwrap()
        .data(objects)
        .unwrap()
        .presenter(Presenter::image_label("Q?", &["Yes", "No"]))
        .unwrap()
        .publish(redundancy)
        .unwrap()
        .collect()
        .unwrap()
        .majority_vote()
        .unwrap()
}

/// The whole observable outcome of a classic run: columns, raw store
/// bytes, round-trip metrics, platform call count.
type Observed = (Vec<Value>, Vec<Value>, Vec<Value>, Vec<(Vec<u8>, Vec<u8>)>, String, u64);

fn observe(cc: &CrowdContext, platform: &SimPlatform, cd: &CrowdData) -> Observed {
    (
        cd.column("task").unwrap(),
        cd.column("result").unwrap(),
        cd.column("mv").unwrap(),
        cc.backend().scan_prefix(b"").unwrap(),
        format!("{:?}", cc.batch_metrics()),
        platform.api_calls(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Classic publish/collect: depths 2, 4, 8 reproduce depth 1 exactly —
    /// columns, cache bytes, metrics, and API calls.
    #[test]
    fn classic_path_is_depth_invariant(
        objs in objects_strategy(),
        redundancy in 1u32..4,
        batch in 1usize..7,
        seed in 0u64..500,
    ) {
        let (cc1, p1) = ctx(1, batch, seed);
        let sequential = classic(&cc1, to_values(&objs), redundancy);
        let reference = observe(&cc1, &p1, &sequential);
        for depth in [2usize, 4, 8] {
            let (cc, p) = ctx(depth, batch, seed);
            let cd = classic(&cc, to_values(&objs), redundancy);
            let got = observe(&cc, &p, &cd);
            prop_assert_eq!(&got, &reference, "depth {} diverged from sequential", depth);
        }
    }

    /// The streaming runner: same candidates, every depth — identical rows
    /// (in identical sink order), identical cache bytes, identical calls.
    #[test]
    fn streaming_path_is_depth_invariant(
        objs in objects_strategy(),
        batch in 1usize..7,
        seed in 0u64..500,
    ) {
        let spec = |_: usize| StreamSpec {
            experiment: "prop-stream".into(),
            presenter: Presenter::image_label("Q?", &["Yes", "No"]),
            n_assignments: 2,
        };
        let run = |depth: usize| {
            let (cc, platform) = ctx(depth, batch, seed);
            let mut rows: Vec<(usize, String, String)> = Vec::new();
            let report = run_stream(
                &cc,
                &spec(depth),
                to_values(&objs).into_iter(),
                |row: StreamedRow| {
                    rows.push((
                        row.index,
                        row.object.to_string(),
                        serde_json::to_string(&row.result.runs).unwrap(),
                    ));
                    Ok(())
                },
            )
            .unwrap();
            (
                rows,
                cc.backend().scan_prefix(b"").unwrap(),
                format!("{:?}", cc.batch_metrics()),
                platform.api_calls(),
                report.stats,
            )
        };
        let reference = run(1);
        // Rows arrive in input order regardless of depth.
        prop_assert!(reference.0.windows(2).all(|w| w[0].0 + 1 == w[1].0));
        for depth in [2usize, 4, 8] {
            let got = run(depth);
            prop_assert_eq!(&got, &reference, "stream depth {} diverged", depth);
        }
    }

    /// Streamed runs and classic runs share one cache: a streamed rerun of
    /// a classic experiment is platform-free, and vice versa.
    #[test]
    fn streamed_and_classic_runs_share_the_cache(
        objs in objects_strategy(),
        seed in 0u64..500,
    ) {
        let (cc, platform) = ctx(4, 5, seed);
        let _ = classic(&cc, to_values(&objs), 2);
        let calls = platform.api_calls();
        let report = run_stream(
            &cc,
            &StreamSpec {
                experiment: "prop".into(),
                presenter: Presenter::image_label("Q?", &["Yes", "No"]),
                n_assignments: 2,
            },
            to_values(&objs).into_iter(),
            |_row| Ok(()),
        )
        .unwrap();
        prop_assert_eq!(platform.api_calls(), calls, "streamed rerun must be free");
        prop_assert_eq!(report.stats.results_reused, objs.len() as u64);
        prop_assert_eq!(report.stats.tasks_published, 0);

        // The other direction: a classic rerun of a streamed experiment.
        let (cc, platform) = ctx(4, 5, seed);
        run_stream(
            &cc,
            &StreamSpec {
                experiment: "prop".into(),
                presenter: Presenter::image_label("Q?", &["Yes", "No"]),
                n_assignments: 2,
            },
            to_values(&objs).into_iter(),
            |_row| Ok(()),
        )
        .unwrap();
        let calls = platform.api_calls();
        let stats = classic(&cc, to_values(&objs), 2).run_stats();
        prop_assert_eq!(platform.api_calls(), calls, "classic rerun must be free");
        let n = objs.len() as u64;
        prop_assert_eq!(stats.results_reused, n);
        prop_assert_eq!(stats.tasks_reused, n);
        prop_assert_eq!(stats.tasks_published, 0);
    }
}
