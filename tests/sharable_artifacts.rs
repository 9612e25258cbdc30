//! The sharable artifact, pinned as whole database files.
//!
//! Reprowd's promise is that a database shipped next to the code reruns
//! the experiment with no crowd work. `golden_codec` pins single cells;
//! this file pins whole databases. `tests/fixtures/sharable/` holds three
//! recorded databases of one Figure 2 run (24 images, redundancy 3,
//! majority vote) on `SimPlatform::quick(5, 0.85, SEED)`:
//!
//! * `single.rwlog`: a database that never rotated, one plain log file,
//!   the format written before segmentation existed;
//! * `segmented.rwlog`: written under `SegmentPolicy::new(4096, 1.0)` in
//!   batches of 4 rows, so it is a manifest, several sealed segments and
//!   the active segment;
//! * `snapshot.rwlog`: `DiskStore::snapshot` of the segmented database.
//!
//! Rerunning the loop over a copy of each, on a fresh platform, must issue
//! zero crowd calls, reuse every task and result, reproduce one pinned
//! digest, and leave every file byte-identical. The fixtures were recorded
//! once by `record_fixtures` and are never re-recorded: a build that
//! cannot rerun them has broken every database already shared.

use reprowd::core::hash::hash_value;
use reprowd::platform::SimPlatform;
use reprowd::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The recorded run's platform seed.
const SEED: u64 = 2017;

/// Rows in the recorded run.
const ROWS: usize = 24;

/// `hash_value` of `[mv column, result column]`, the same for all three
/// fixtures.
const DIGEST: u64 = 0x5f7ce4aa0ce24bec;

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sharable")
}

/// The files of the database whose base file is `base` in `dir`: the base
/// file, and its manifest and segments if it has any. Sorted by name.
fn family(dir: &Path, base: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.file_name().unwrap().to_str().unwrap().starts_with(base))
        .collect();
    files.sort();
    files
}

fn images() -> Vec<Value> {
    (0..ROWS)
        .map(|i| {
            val!({
                "url": format!("img{i}.jpg"),
                "_sim": {"kind": "label", "truth": (i % 2), "labels": ["Yes", "No"], "difficulty": 0.1}
            })
        })
        .collect()
}

fn figure2(cc: &CrowdContext) -> CrowdData {
    cc.crowddata("fig2")
        .unwrap()
        .data(images())
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

fn digest(cd: &CrowdData) -> u64 {
    hash_value(&val!([cd.column("mv").unwrap(), cd.column("result").unwrap()]))
}

fn platform() -> Arc<SimPlatform> {
    Arc::new(SimPlatform::quick(5, 0.85, SEED))
}

/// Copies the fixture database `base` to a scratch directory, reruns the
/// loop over it on a fresh platform, and checks the rerun was free,
/// reproduced the pinned digest and wrote nothing. Returns the names of
/// the database's files.
fn rerun(base: &str) -> Vec<String> {
    let originals = family(&fixtures(), base);
    assert!(!originals.is_empty(), "fixture {base} is missing");
    let dir = std::env::temp_dir().join(format!("reprowd-sharable-{}-{base}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for file in &originals {
        std::fs::copy(file, dir.join(file.file_name().unwrap())).unwrap();
    }

    let p = platform();
    {
        let cc = CrowdContext::on_disk(
            Arc::clone(&p) as Arc<dyn CrowdPlatform>,
            dir.join(base),
            SyncPolicy::Never,
        )
        .unwrap();
        let cd = figure2(&cc);
        let s = cd.run_stats();
        assert_eq!((s.tasks_reused, s.results_reused), (ROWS as u64, ROWS as u64), "{base}");
        assert_eq!((s.tasks_published, s.results_collected, s.tasks_republished), (0, 0, 0));
        assert_eq!(p.api_calls(), 0, "{base}: a rerun must issue no crowd calls");
        assert_eq!(digest(&cd), DIGEST, "{base}: the rerun's columns changed");
    }

    let copies = family(&dir, base);
    let names = |files: &[PathBuf]| -> Vec<String> {
        files.iter().map(|f| f.file_name().unwrap().to_str().unwrap().to_string()).collect()
    };
    assert_eq!(names(&copies), names(&originals), "{base}: the rerun changed the file set");
    for (copy, original) in copies.iter().zip(&originals) {
        let same = std::fs::read(copy).unwrap() == std::fs::read(original).unwrap();
        assert!(same, "{base}: the rerun rewrote {}", copy.display());
    }
    std::fs::remove_dir_all(&dir).unwrap();
    names(&originals)
}

#[test]
fn single_file_database_reruns_for_free() {
    assert_eq!(rerun("single.rwlog"), vec!["single.rwlog"], "it must never have rotated");
}

#[test]
fn segmented_database_reruns_for_free() {
    let files = rerun("segmented.rwlog");
    assert!(files.contains(&"segmented.rwlog.manifest".to_string()), "{files:?}");
    assert!(files.len() > 3, "a manifest and several segments: {files:?}");
}

#[test]
fn snapshot_reruns_for_free() {
    assert_eq!(rerun("snapshot.rwlog"), vec!["snapshot.rwlog"]);
}

/// Writes the three fixtures and prints their digest. Kept to document how
/// they were made; it refuses to overwrite them.
#[test]
#[ignore = "records the fixtures, which are never re-recorded"]
fn record_fixtures() {
    let dir = fixtures();
    std::fs::create_dir_all(&dir).unwrap();
    for base in ["single.rwlog", "segmented.rwlog", "snapshot.rwlog"] {
        assert!(family(&dir, base).is_empty(), "{base} exists and is never re-recorded");
    }

    let cc = CrowdContext::on_disk(platform(), dir.join("single.rwlog"), SyncPolicy::Always);
    let single = digest(&figure2(&cc.unwrap()));

    let policy = SegmentPolicy::new(4096, 1.0);
    let store = DiskStore::open_with(dir.join("segmented.rwlog"), SyncPolicy::Always, policy);
    let store = Arc::new(store.unwrap());
    let backend = Arc::clone(&store) as Arc<dyn Backend>;
    let cc = CrowdContext::with_config(platform(), backend, ExecutionConfig::with_batch_size(4));
    let segmented = digest(&figure2(&cc.unwrap()));
    store.snapshot(dir.join("snapshot.rwlog")).unwrap();

    assert_eq!(single, segmented, "the storage layout must not change the run");
    println!("DIGEST = {single:#018x}");
}
