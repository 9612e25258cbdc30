//! The classic schedule reads its cache as a pipeline pass: `publish` and
//! `collect` read and decode their cached cells on the pipeline's workers,
//! one chunk per job, before any gated pass runs.
//!
//! * A property test runs a fresh run over a prefix of the objects, an
//!   extended run over all of them (the prefix served from the cache, the
//!   rest from the crowd), and a full rerun, at depths 1, 2, 4 and 8. Every
//!   depth must reproduce depth 1 — columns, store bytes, batch metrics,
//!   API calls and each run's `RunStats` — and the reuse counts are exact.
//! * Fault tests put a damaged cell and a panicking store read in a late
//!   chunk: `publish` and `collect` return an error at every depth, never
//!   hang or unwind, and call no platform.

use proptest::prelude::*;
use reprowd_core::context::CrowdContext;
use reprowd_core::crowddata::RunStats;
use reprowd_core::exec::ExecutionConfig;
use reprowd_core::presenter::Presenter;
use reprowd_core::value::Value;
use reprowd_core::{CrowdData, Error};
use reprowd_platform::{CrowdPlatform, SimPlatform};
use reprowd_storage::{Backend, Batch, MemoryStore, StoreStats};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

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

fn ctx(
    db: Arc<dyn Backend>,
    platform: &Arc<SimPlatform>,
    depth: usize,
    batch: usize,
) -> CrowdContext {
    CrowdContext::with_config(
        Arc::clone(platform) as Arc<dyn CrowdPlatform>,
        db,
        ExecutionConfig::with_batch_size(batch).with_inflight_batches(depth),
    )
    .unwrap()
}

fn published(cc: &CrowdContext, objects: Vec<Value>) -> Result<CrowdData, Error> {
    cc.crowddata("cache-pass")?
        .data(objects)?
        .presenter(Presenter::image_label("Q?", &["Yes", "No"]))?
        .publish(2)
}

/// What one run leaves behind: columns, `RunStats`, raw store bytes,
/// round-trip metrics, platform calls so far.
type Observed =
    (Vec<Value>, Vec<Value>, Vec<Value>, RunStats, Vec<(Vec<u8>, Vec<u8>)>, String, u64);

/// The fresh prefix run, the extended run and the rerun, at one depth.
fn three_runs(
    objs: &[(String, usize)],
    prefix: usize,
    depth: usize,
    batch: usize,
    seed: u64,
) -> Vec<Observed> {
    let db: Arc<dyn Backend> = Arc::new(MemoryStore::new());
    let platform = Arc::new(SimPlatform::quick(6, 0.9, seed));
    let cc = ctx(db, &platform, depth, batch);
    [&objs[..prefix], objs, objs]
        .into_iter()
        .map(|objs| {
            let cd =
                published(&cc, to_values(objs)).unwrap().collect().unwrap().majority_vote().unwrap();
            (
                cd.column("task").unwrap(),
                cd.column("result").unwrap(),
                cd.column("mv").unwrap(),
                cd.run_stats(),
                cc.backend().scan_prefix(b"").unwrap(),
                format!("{:?}", cc.batch_metrics()),
                platform.api_calls(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Fresh prefix, extended run, rerun: depths 2, 4, 8 reproduce depth 1,
    /// and the cache serves exactly the rows an earlier run stored.
    #[test]
    fn cached_reruns_are_depth_invariant(
        objs in objects_strategy(),
        cut in 0usize..41,
        batch in 1usize..7,
        seed in 0u64..500,
    ) {
        let (n, k) = (objs.len() as u64, cut.min(objs.len()));
        let reference = three_runs(&objs, k, 1, batch, seed);
        let stats: Vec<RunStats> = reference.iter().map(|run| run.3).collect();
        let k = k as u64;
        prop_assert_eq!(stats[0], RunStats {
            tasks_published: k, results_collected: k, ..RunStats::default()
        });
        prop_assert_eq!(stats[1], RunStats {
            tasks_published: n - k,
            tasks_reused: k,
            results_collected: n - k,
            results_reused: k,
            tasks_republished: 0,
        });
        prop_assert_eq!(stats[2], RunStats {
            tasks_reused: n, results_reused: n, ..RunStats::default()
        });
        // The rerun publishes nothing and calls no platform.
        prop_assert_eq!(reference[2].6, reference[1].6);
        prop_assert_eq!(&reference[2].4, &reference[1].4);
        for depth in [2usize, 4, 8] {
            let got = three_runs(&objs, k as usize, depth, batch, seed);
            prop_assert_eq!(&got, &reference, "depth {} diverged from sequential", depth);
        }
    }
}

// ------------------------------------------------------------- faults

const ROWS: usize = 40;
const BATCH: usize = 5;
/// A row of the seventh chunk, of eight.
const LATE_ROW: usize = 32;

fn objects(n: usize) -> Vec<Value> {
    (0..n)
        .map(|i| {
            serde_json::json!({
                "url": format!("img{i}.jpg"),
                "_sim": {"kind": "label", "truth": i % 2, "labels": ["Yes", "No"], "difficulty": 0.0}
            })
        })
        .collect()
}

fn is_codec(e: &Error) -> bool {
    matches!(e, Error::Storage(reprowd_storage::Error::Codec(_)))
}

/// Runs `f` on a helper thread, failing the test if it has not returned
/// within 10 s instead of hanging the suite, or if it unwound.
fn within_timeout<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("the pipeline hung (or unwound) instead of returning an error");
    helper.join().expect("the helper thread finished after sending");
    out
}

#[test]
fn a_task_cell_that_is_not_json_fails_publish_before_any_call() {
    for depth in [1usize, 2, 4, 8] {
        let db: Arc<dyn Backend> = Arc::new(MemoryStore::new());
        let platform = Arc::new(SimPlatform::quick(6, 0.9, 17));
        let cc = ctx(Arc::clone(&db), &platform, depth, BATCH);
        // Publish the first 35 rows, then damage one in the seventh chunk:
        // the run over all 40 would publish the last chunk, were it not
        // for the damaged cell.
        let suffix = format!("/{}", published(&cc, objects(35)).unwrap().rows()[LATE_ROW].hash);
        let (key, cell) = db
            .scan_prefix(b"t/task/cache-pass/")
            .unwrap()
            .into_iter()
            .find(|(key, _)| key.ends_with(suffix.as_bytes()))
            .expect("the late row's task cell");
        let cell = String::from_utf8(cell).unwrap();
        assert!(cell.contains(r#""status":"Open""#), "{cell}");
        db.set(&key, cell.replace(r#""status":"Open""#, r#""status":Open"#).as_bytes()).unwrap();

        let (bytes, calls) = (db.scan_prefix(b"").unwrap(), platform.api_calls());
        let err = published(&cc, objects(ROWS)).err().expect("a damaged cell fails publish");
        assert!(is_codec(&err), "depth {depth}: {err}");
        assert_eq!(platform.api_calls(), calls, "depth {depth}: no platform call");
        assert_eq!(db.scan_prefix(b"").unwrap(), bytes, "depth {depth}: store unchanged");
    }
}

/// A `MemoryStore` whose `get` panics on a key ending in `poison` while
/// armed.
struct PanickingGet {
    inner: MemoryStore,
    poison: String,
    armed: AtomicBool,
}

impl Backend for PanickingGet {
    fn set(&self, key: &[u8], value: &[u8]) -> reprowd_storage::Result<()> {
        self.inner.set(key, value)
    }
    fn get(&self, key: &[u8]) -> reprowd_storage::Result<Option<Vec<u8>>> {
        let poisoned = key.ends_with(self.poison.as_bytes());
        assert!(!(poisoned && self.armed.load(Ordering::SeqCst)), "get of a poisoned key");
        self.inner.get(key)
    }
    fn delete(&self, key: &[u8]) -> reprowd_storage::Result<()> {
        self.inner.delete(key)
    }
    fn scan_prefix(&self, prefix: &[u8]) -> reprowd_storage::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.inner.scan_prefix(prefix)
    }
    fn apply_batch(&self, batch: Batch) -> reprowd_storage::Result<()> {
        self.inner.apply_batch(batch)
    }
    fn flush(&self) -> reprowd_storage::Result<()> {
        self.inner.flush()
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

#[test]
fn a_panicking_cache_read_is_an_error_not_an_unwind() {
    for depth in [1usize, 2, 4, 8] {
        let (publish_err, collect_err, calls) = within_timeout(move || {
            // The late row's hash, from a throwaway context.
            let probe = CrowdContext::in_memory_sim(1);
            let cd = probe.crowddata("cache-pass").unwrap().data(objects(ROWS)).unwrap();
            let db = Arc::new(PanickingGet {
                inner: MemoryStore::new(),
                poison: format!("/{}", cd.rows()[LATE_ROW].hash),
                armed: AtomicBool::new(true),
            });
            let platform = Arc::new(SimPlatform::quick(6, 0.9, 23));
            let cc = ctx(Arc::clone(&db) as Arc<dyn Backend>, &platform, depth, BATCH);
            let publish_err = published(&cc, objects(ROWS)).err().map(|e| e.to_string());
            let calls = platform.api_calls();

            db.armed.store(false, Ordering::SeqCst);
            let cd = published(&cc, objects(ROWS)).unwrap();
            db.armed.store(true, Ordering::SeqCst);
            let collect_err = cd.collect().err().map(|e| e.to_string());
            (publish_err, collect_err, calls)
        });
        for (step, err) in [("publish", publish_err), ("collect", collect_err)] {
            let err = err.unwrap_or_else(|| panic!("depth {depth}: {step} must fail"));
            assert!(err.contains("panicked: get of a poisoned key"), "depth {depth}, {step}: {err}");
        }
        assert_eq!(calls, 0, "depth {depth}: the failed publish called no platform");
    }
}
