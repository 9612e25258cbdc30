//! The paper's *sharable* guarantee as a dedicated integration test: after
//! a crash (the context is dropped, the process "restarts"), reopening the
//! same database and re-running the identical pipeline replays everything
//! from disk and issues **zero** new platform calls.
//!
//! This is the property that makes a Reprowd experiment reproducible: the
//! database file alone carries the full crowdsourced state.

use reprowd::core::ExecutionConfig;
use reprowd::platform::{CrowdPlatform, FailingPlatform, SimPlatform};
use reprowd::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reprowd-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    // A segmented database is a file *family* (base + manifest +
    // segments); destroy clears them all so reruns start fresh.
    DiskStore::destroy(&p).unwrap();
    p
}

fn objects(n: usize) -> Vec<Value> {
    (0..n)
        .map(|i| {
            val!({
                "url": format!("img{i}.jpg"),
                "_sim": {"kind": "label", "truth": (i % 3).min(1), "labels": ["Yes", "No"], "difficulty": 0.05}
            })
        })
        .collect()
}

fn pipeline(cc: &reprowd::core::CrowdContext, n: usize) -> reprowd::core::CrowdData {
    cc.crowddata("recovery")
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

/// The ISSUE's scenario verbatim: publish + collect, drop the context,
/// reopen the same store, re-run the pipeline — zero new platform calls.
#[test]
fn reopened_store_reruns_with_zero_platform_calls() {
    let path = tmp("zero-calls.rwlog");
    let platform = Arc::new(SimPlatform::quick(6, 0.9, 4242));

    let (first_mv, first_result) = {
        let cc = reprowd::core::CrowdContext::on_disk(
            Arc::clone(&platform) as Arc<dyn CrowdPlatform>,
            &path,
            SyncPolicy::Always,
        )
        .unwrap();
        let cd = pipeline(&cc, 20);
        (cd.column("mv").unwrap(), cd.column("result").unwrap())
        // `cc` (and with it the DiskStore handle) drops here: the "crash".
    };

    let calls_before_rerun = platform.api_calls();
    assert!(calls_before_rerun > 0, "the fresh run must have hit the platform");

    // A brand-new context over the same file.
    let cc = reprowd::core::CrowdContext::on_disk(
        Arc::clone(&platform) as Arc<dyn CrowdPlatform>,
        &path,
        SyncPolicy::Always,
    )
    .unwrap();
    let cd = pipeline(&cc, 20);

    assert_eq!(
        platform.api_calls(),
        calls_before_rerun,
        "rerun after crash+reopen must issue zero new platform calls"
    );
    let s = cd.run_stats();
    assert_eq!(s.tasks_published, 0);
    assert_eq!(s.results_collected, 0);
    assert_eq!(s.tasks_reused, 20);
    assert_eq!(s.results_reused, 20);
    // And the answers are bit-identical, not merely free.
    assert_eq!(cd.column("mv").unwrap(), first_mv);
    assert_eq!(cd.column("result").unwrap(), first_result);
}

/// Crash *between* publish and collect: the rerun must not republish a
/// single task — it only pays the result fetches the crash swallowed.
#[test]
fn crash_between_publish_and_collect_republishes_nothing() {
    let path = tmp("mid-crash.rwlog");
    let platform = Arc::new(SimPlatform::quick(6, 0.9, 7));

    {
        let cc = reprowd::core::CrowdContext::on_disk(
            Arc::clone(&platform) as Arc<dyn CrowdPlatform>,
            &path,
            SyncPolicy::Always,
        )
        .unwrap();
        let _published = cc
            .crowddata("recovery")
            .unwrap()
            .data(objects(12))
            .unwrap()
            .presenter(Presenter::image_label("Is this a cat?", &["Yes", "No"]))
            .unwrap()
            .publish(3)
            .unwrap();
        // Crash before collect().
    }

    let cc = reprowd::core::CrowdContext::on_disk(
        Arc::clone(&platform) as Arc<dyn CrowdPlatform>,
        &path,
        SyncPolicy::Always,
    )
    .unwrap();
    let cd = pipeline(&cc, 12);
    let s = cd.run_stats();
    assert_eq!(s.tasks_published, 0, "publish must be fully recovered from the store");
    assert_eq!(s.tasks_reused, 12);
    assert_eq!(s.results_collected, 12, "only the lost collect step is re-done");
    assert_eq!(cd.column("mv").unwrap().len(), 12);

    // A third run is now entirely free.
    let calls = platform.api_calls();
    let _ = pipeline(&cc, 12);
    assert_eq!(platform.api_calls(), calls, "fully-cached rerun must be free");
}

/// Crash *between* publish batches: each batch is one platform round-trip
/// followed by one atomic database write, so the rerun reuses every batch
/// that landed and repays only the rows the crash swallowed.
#[test]
fn crash_between_publish_batches_repays_only_the_missing_batches() {
    let path = tmp("batch-crash.rwlog");
    let inner = Arc::new(SimPlatform::quick(6, 0.9, 55));
    // Budget 3 = create + two bulk publishes of 4 rows each: the third
    // batch of 10 rows in batches of 4 dies on the wire.
    let failing = Arc::new(FailingPlatform::new(Arc::clone(&inner), 3));

    {
        let cc = reprowd::core::CrowdContext::with_config(
            Arc::clone(&failing) as Arc<dyn CrowdPlatform>,
            Arc::new(DiskStore::open(&path, SyncPolicy::Always).unwrap()),
            ExecutionConfig::with_batch_size(4),
        )
        .unwrap();
        match cc
            .crowddata("recovery")
            .unwrap()
            .data(objects(10))
            .unwrap()
            .presenter(Presenter::image_label("Is this a cat?", &["Yes", "No"]))
            .unwrap()
            .publish(3)
        {
            Err(e) => assert!(e.is_injected_fault(), "the third batch must crash: {e}"),
            Ok(_) => panic!("publish must crash on the third batch"),
        }
        // Context drops here: the client process "dies" mid-publish.
    }

    // The process restarts: same database file, replenished platform.
    failing.reset_budget(u64::MAX);
    let cc = reprowd::core::CrowdContext::with_config(
        Arc::clone(&failing) as Arc<dyn CrowdPlatform>,
        Arc::new(DiskStore::open(&path, SyncPolicy::Always).unwrap()),
        ExecutionConfig::with_batch_size(4),
    )
    .unwrap();
    let cd = cc
        .crowddata("recovery")
        .unwrap()
        .data(objects(10))
        .unwrap()
        .presenter(Presenter::image_label("Is this a cat?", &["Yes", "No"]))
        .unwrap()
        .publish(3)
        .unwrap()
        .collect()
        .unwrap()
        .majority_vote()
        .unwrap();
    let s = cd.run_stats();
    assert_eq!(s.tasks_reused, 8, "both persisted batches must be reused");
    assert_eq!(s.tasks_published, 2, "only the crashed batch is repaid");
    assert_eq!(s.results_collected, 10);
    assert_eq!(cd.column("mv").unwrap().len(), 10);
    // The crashed batch died on the wire *before* reaching the platform,
    // so the crowd saw each of the 10 tasks exactly once — no duplicate
    // work — and a further rerun is entirely free.
    let calls = inner.api_calls();
    let cd2 = cc
        .crowddata("recovery")
        .unwrap()
        .data(objects(10))
        .unwrap()
        .presenter(Presenter::image_label("Is this a cat?", &["Yes", "No"]))
        .unwrap()
        .publish(3)
        .unwrap()
        .collect()
        .unwrap()
        .majority_vote()
        .unwrap();
    assert_eq!(inner.api_calls(), calls, "post-recovery rerun must be free");
    assert_eq!(cd2.column("mv").unwrap(), cd.column("mv").unwrap());
}

/// Crash with batches *in flight*: under a pipelined depth of 4, the
/// budget runs out at a deterministic batch (the issue gate charges in
/// batch order), the database keeps exactly the committed batch prefix,
/// and the rerun repays only the uncommitted chunks — at every depth, the
/// same chunks.
#[test]
fn crash_mid_pipeline_reruns_only_uncommitted_chunks() {
    for depth in [1usize, 4, 8] {
        let path = tmp(&format!("pipeline-crash-{depth}.rwlog"));
        let inner = Arc::new(SimPlatform::quick(6, 0.9, 321));
        // Budget 4 = create + three bulk publishes of 4 rows each; the
        // fourth and fifth batches die in flight, whatever the depth.
        let failing = Arc::new(FailingPlatform::new(Arc::clone(&inner), 4));
        let config = || {
            ExecutionConfig::with_batch_size(4).with_inflight_batches(depth)
        };
        {
            let cc = reprowd::core::CrowdContext::with_config(
                Arc::clone(&failing) as Arc<dyn CrowdPlatform>,
                Arc::new(DiskStore::open(&path, SyncPolicy::Always).unwrap()),
                config(),
            )
            .unwrap();
            match cc
                .crowddata("recovery")
                .unwrap()
                .data(objects(20))
                .unwrap()
                .presenter(Presenter::image_label("Is this a cat?", &["Yes", "No"]))
                .unwrap()
                .publish(3)
            {
                Err(e) => assert!(e.is_injected_fault(), "depth {depth}: {e}"),
                Ok(_) => panic!("depth {depth}: publish must crash on the fourth batch"),
            }
            // Client dies with up to `depth` batches in flight.
        }

        failing.reset_budget(u64::MAX);
        let cc = reprowd::core::CrowdContext::with_config(
            Arc::clone(&failing) as Arc<dyn CrowdPlatform>,
            Arc::new(DiskStore::open(&path, SyncPolicy::Always).unwrap()),
            config(),
        )
        .unwrap();
        let cd = pipeline(&cc, 20);
        let s = cd.run_stats();
        // Deterministic prefix: exactly the three batches the budget
        // covered were committed, at every depth.
        assert_eq!(s.tasks_reused, 12, "depth {depth}: committed prefix must be reused");
        assert_eq!(s.tasks_published, 8, "depth {depth}: only uncommitted chunks repaid");
        assert_eq!(s.results_collected, 20);
        assert_eq!(cd.column("mv").unwrap().len(), 20);
    }
}

/// A crash mid-*stream* behaves the same way: the streamed chunks commit
/// in order, so a budget crash leaves a clean chunk prefix and the
/// streamed rerun pays only the tail.
#[test]
fn crash_mid_stream_resumes_from_the_committed_prefix() {
    use reprowd_core::pipeline::{run_stream, StreamSpec};
    let inner = Arc::new(SimPlatform::quick(6, 0.9, 77));
    // Budget 7 = create + three streamed chunks (publish + fetch each,
    // the wait and the probes are free on the sim); chunk 4 of 5 dies.
    let failing = Arc::new(FailingPlatform::new(Arc::clone(&inner), 7));
    let db: Arc<dyn Backend> = Arc::new(MemoryStore::new());
    let cc = reprowd::core::CrowdContext::with_config(
        Arc::clone(&failing) as Arc<dyn CrowdPlatform>,
        Arc::clone(&db),
        ExecutionConfig::with_batch_size(4).with_inflight_batches(4),
    )
    .unwrap();
    let spec = StreamSpec {
        experiment: "stream-crash".into(),
        presenter: Presenter::image_label("Is this a cat?", &["Yes", "No"]),
        n_assignments: 3,
    };
    let mut delivered = 0u64;
    let err = run_stream(&cc, &spec, objects(20).into_iter(), |_row| {
        delivered += 1;
        Ok(())
    })
    .unwrap_err();
    assert!(err.is_injected_fault(), "unexpected: {err}");
    assert_eq!(delivered, 12, "exactly the three committed chunks reached the sink");

    failing.reset_budget(u64::MAX);
    let mut rerun_rows = Vec::new();
    let report = run_stream(&cc, &spec, objects(20).into_iter(), |row| {
        rerun_rows.push(row.index);
        Ok(())
    })
    .unwrap();
    assert_eq!(rerun_rows, (0..20).collect::<Vec<_>>());
    assert_eq!(report.stats.results_reused, 12, "committed chunks replay from the store");
    assert_eq!(report.stats.tasks_published, 8, "only the crashed tail is repaid");
}

/// The sharable guarantee survives the segmented storage layout: with the
/// log forced to rotate every few hundred bytes (plus a compaction between
/// the runs), a crash + reopen still reruns with zero platform calls and
/// bit-identical answers.
#[test]
fn segmented_database_reruns_with_zero_platform_calls() {
    let path = tmp("segmented.rwlog");
    let platform = Arc::new(SimPlatform::quick(6, 0.9, 2025));
    let config = || {
        ExecutionConfig::with_batch_size(5)
            .with_segment_policy(SegmentPolicy::new(512, 1.0))
    };

    let first_mv = {
        let cc = reprowd::core::CrowdContext::on_disk_with(
            Arc::clone(&platform) as Arc<dyn CrowdPlatform>,
            &path,
            SyncPolicy::Always,
            config(),
        )
        .unwrap();
        let cd = pipeline(&cc, 20);
        // The tiny policy really sharded the database into many segments.
        assert!(cc.backend().stats().segments > 2, "stats: {:?}", cc.backend().stats());
        cd.column("mv").unwrap()
        // "Crash".
    };

    // Compact between the crash and the rerun — recovery must read the
    // rewritten segments, not the original log.
    {
        let store =
            DiskStore::open_with(&path, SyncPolicy::Always, config().segment_policy).unwrap();
        assert!(store.recovery_report().segments > 2);
        store.compact().unwrap();
    }

    let calls_before_rerun = platform.api_calls();
    let cc = reprowd::core::CrowdContext::on_disk_with(
        Arc::clone(&platform) as Arc<dyn CrowdPlatform>,
        &path,
        SyncPolicy::Always,
        config(),
    )
    .unwrap();
    let cd = pipeline(&cc, 20);
    assert_eq!(
        platform.api_calls(),
        calls_before_rerun,
        "rerun over the compacted segmented database must be free"
    );
    assert_eq!(cd.run_stats().tasks_reused, 20);
    assert_eq!(cd.run_stats().results_reused, 20);
    assert_eq!(cd.column("mv").unwrap(), first_mv);
}

/// A database written by the pre-segmentation engine (one plain log file)
/// keeps working: it opens as-is, reruns for free, and the first
/// compaction migrates it to the segmented layout without losing a cell.
#[test]
fn legacy_single_file_database_still_shares_after_migration() {
    let path = tmp("legacy-migrate.rwlog");
    let platform = Arc::new(SimPlatform::quick(6, 0.9, 909));

    // The default policy never rotates at this size: this file is
    // byte-compatible with what the old engine wrote.
    let first_mv = {
        let cc = reprowd::core::CrowdContext::on_disk(
            Arc::clone(&platform) as Arc<dyn CrowdPlatform>,
            &path,
            SyncPolicy::Always,
        )
        .unwrap();
        pipeline(&cc, 10).column("mv").unwrap()
    };

    // Migrate: open with a tiny segment policy and compact.
    {
        let store =
            DiskStore::open_with(&path, SyncPolicy::Always, SegmentPolicy::new(512, 1.0))
                .unwrap();
        store.compact().unwrap();
        assert!(store.stats().segments > 1, "migration must have split the log");
    }

    let calls = platform.api_calls();
    let cc = reprowd::core::CrowdContext::on_disk_with(
        Arc::clone(&platform) as Arc<dyn CrowdPlatform>,
        &path,
        SyncPolicy::Always,
        ExecutionConfig::default().with_segment_policy(SegmentPolicy::new(512, 1.0)),
    )
    .unwrap();
    let cd = pipeline(&cc, 10);
    assert_eq!(platform.api_calls(), calls, "migrated database must rerun for free");
    assert_eq!(cd.column("mv").unwrap(), first_mv);
}

/// Recovery also survives many crash/reopen cycles with a growing dataset:
/// every cycle pays only for its delta, never for history.
#[test]
fn repeated_crashes_pay_only_deltas() {
    let path = tmp("cycles.rwlog");
    let platform = Arc::new(SimPlatform::quick(6, 0.9, 99));

    let mut published_total = 0u64;
    for n in [3usize, 6, 9, 12] {
        let cc = reprowd::core::CrowdContext::on_disk(
            Arc::clone(&platform) as Arc<dyn CrowdPlatform>,
            &path,
            SyncPolicy::Always,
        )
        .unwrap();
        let cd = pipeline(&cc, n);
        let s = cd.run_stats();
        assert_eq!(s.tasks_reused as usize, n - 3, "cycle n={n} must reuse its prefix");
        assert_eq!(s.tasks_published, 3, "cycle n={n} must pay exactly its delta");
        published_total += s.tasks_published;
        // Context dropped: next loop iteration is a fresh "process".
    }
    assert_eq!(published_total, 12);
}

/// Runs `f` on a helper thread, failing the test if it has not returned
/// within 10 s instead of hanging the suite.
fn within_timeout<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("the pipeline hung (or unwound) instead of returning an error");
    helper.join().expect("the helper thread finished after sending");
    out
}

/// A simulator whose `at`-th bulk publish (0-based) panics: an adapter
/// bug rather than a reported failure.
struct PanicOnPublish {
    inner: Arc<SimPlatform>,
    at: u64,
    publishes: std::sync::atomic::AtomicU64,
}

mod panic_on_publish {
    use super::PanicOnPublish;
    use reprowd::platform::{
        CrowdPlatform, Project, ProjectId, Result, SimTime, Task, TaskId, TaskRun, TaskSpec,
    };
    use std::sync::atomic::Ordering;

    impl CrowdPlatform for PanicOnPublish {
        fn name(&self) -> &str {
            "panic-on-publish"
        }
        fn create_project(&self, name: &str) -> Result<ProjectId> {
            self.inner.create_project(name)
        }
        fn project(&self, id: ProjectId) -> Result<Project> {
            self.inner.project(id)
        }
        fn publish_task(&self, project: ProjectId, spec: TaskSpec) -> Result<Task> {
            self.inner.publish_task(project, spec)
        }
        fn publish_tasks(&self, project: ProjectId, specs: Vec<TaskSpec>) -> Result<Vec<Task>> {
            assert!(self.publishes.fetch_add(1, Ordering::SeqCst) != self.at, "adapter bug");
            self.inner.publish_tasks(project, specs)
        }
        fn task(&self, id: TaskId) -> Result<Task> {
            self.inner.task(id)
        }
        fn fetch_runs(&self, task: TaskId) -> Result<Vec<TaskRun>> {
            self.inner.fetch_runs(task)
        }
        fn is_complete(&self, task: TaskId) -> Result<bool> {
            self.inner.is_complete(task)
        }
        fn step(&self) -> Result<bool> {
            self.inner.step()
        }
        fn api_calls(&self) -> u64 {
            self.inner.api_calls()
        }
        fn now(&self) -> SimTime {
            self.inner.now()
        }
    }
}

/// A panic inside a pipelined platform call surfaces as an error from
/// `publish`, at every depth, with the batches before it committed — the
/// same prefix an injected crash at that batch leaves.
#[test]
fn panic_in_a_platform_call_fails_publish_with_the_committed_prefix() {
    for depth in [1usize, 4, 8] {
        let inner = Arc::new(SimPlatform::quick(6, 0.9, 321));
        let db: Arc<dyn Backend> = Arc::new(MemoryStore::new());
        let config = move || ExecutionConfig::with_batch_size(4).with_inflight_batches(depth);
        let panicky = Arc::new(PanicOnPublish {
            inner: Arc::clone(&inner),
            at: 2,
            publishes: Default::default(),
        });
        let cc = reprowd::core::CrowdContext::with_config(panicky, Arc::clone(&db), config())
            .unwrap();
        let err = within_timeout(move || {
            cc.crowddata("recovery")
                .unwrap()
                .data(objects(20))
                .unwrap()
                .presenter(Presenter::image_label("Is this a cat?", &["Yes", "No"]))
                .unwrap()
                .publish(3)
                .err()
                .map(|e| e.to_string())
        })
        .expect("publish must fail");
        assert!(err.contains("panicked: adapter bug"), "depth {depth}: {err}");

        let cc = reprowd::core::CrowdContext::with_config(inner, db, config()).unwrap();
        let s = pipeline(&cc, 20).run_stats();
        assert_eq!(s.tasks_reused, 8, "depth {depth}: the two batches before the panic");
        assert_eq!(s.tasks_published, 12, "depth {depth}");
    }
}

/// A panicking stream sink (the commit side) surfaces as an error from
/// `run_stream` instead of hanging the in-flight workers; the chunks
/// committed before it replay from the store.
#[test]
fn panic_in_a_stream_sink_fails_run_stream_with_the_committed_prefix() {
    use reprowd_core::pipeline::{run_stream, StreamSpec};
    for depth in [1usize, 4, 8] {
        let db: Arc<dyn Backend> = Arc::new(MemoryStore::new());
        let cc = reprowd::core::CrowdContext::with_config(
            Arc::new(SimPlatform::quick(6, 0.9, 77)),
            db,
            ExecutionConfig::with_batch_size(4).with_inflight_batches(depth),
        )
        .unwrap();
        let spec = StreamSpec {
            experiment: "stream-panic".into(),
            presenter: Presenter::image_label("Is this a cat?", &["Yes", "No"]),
            n_assignments: 3,
        };
        let (cc2, spec2) = (cc.clone(), spec.clone());
        let (delivered, err) = within_timeout(move || {
            let mut delivered = 0usize;
            let err = run_stream(&cc2, &spec2, objects(100).into_iter(), |row| {
                assert!(row.index != 9, "sink bug");
                delivered += 1;
                Ok(())
            })
            .unwrap_err();
            (delivered, err.to_string())
        });
        assert!(err.contains("panicked: sink bug"), "depth {depth}: {err}");
        assert_eq!(delivered, 9, "depth {depth}: rows before the panicking one");

        let report = run_stream(&cc, &spec, objects(100).into_iter(), |_| Ok(())).unwrap();
        // Chunk 2 persisted its cells before its sink ran, as with a sink
        // that returns an error.
        assert_eq!(report.stats.results_reused, 12, "depth {depth}");
        assert_eq!(report.stats.tasks_published, 88, "depth {depth}");
    }
}
