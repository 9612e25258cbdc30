//! E14 — the segmented storage engine: reopen time, compaction stalls, and
//! cross-backend parity on a write-heavy overwrite workload (10^6 writes
//! over 10^4 live keys in full mode).
//!
//! What it pins:
//!
//! * **Reopen replays only live segments** — after compaction, reopening
//!   the database must be ≥ 5× faster than replaying the equivalent
//!   un-compacted single-file log (it is typically 50×+: 10^4 live records
//!   instead of 10^6 total).
//! * **No stop-the-world compaction** — a reader thread hammers `get`
//!   while `compact()` rewrites tens of MB; the max observed read latency
//!   must stay a small fraction of the compaction wall time (the old
//!   engine held the store mutex for the whole rewrite, so its max stall
//!   *was* the wall time).
//! * **Parity** — the same op sequence through `MemoryStore`, a legacy
//!   single-file `DiskStore`, and the segmented engine (with a mid-stream
//!   compaction + reopen) yields bit-identical `scan_prefix` results.
//!
//! Writes `BENCH_E14.json` at the workspace root so the perf trajectory is
//! tracked across PRs. Smoke mode (`REPROWD_E14_SMOKE=1`, used by CI)
//! shrinks the workload and relaxes only the scheduler-sensitive stall
//! ratio (a 1-core CI box preempts the reader for whole time slices).

use reprowd_bench::{banner, table, timed};
use reprowd_storage::{Backend, DiskStore, MemoryStore, SegmentPolicy, SyncPolicy};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// This process's scratch directory, under the system temp dir.
fn scratch_dir() -> PathBuf {
    std::env::temp_dir().join(format!("reprowd-exp14-{}", std::process::id()))
}

/// Removes the scratch directory when dropped: as `main` returns, and as a
/// failed gate unwinds out of it.
struct ScratchGuard;

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(scratch_dir());
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    // Clear the whole database family (base + manifest + segments).
    DiskStore::destroy(&p).unwrap();
    p
}

/// Never rotate: produces exactly the pre-segmentation single-file layout.
fn single_file_policy() -> SegmentPolicy {
    SegmentPolicy::new(u64::MAX, 1.0)
}

struct ReopenResult {
    writes: u64,
    live_keys: usize,
    single_log_bytes: u64,
    single_log_ms: f64,
    segmented_bytes: u64,
    segmented_segments: usize,
    segmented_ms: f64,
    speedup: f64,
}

/// Phase 1: `writes` overwrites cycling over `keys` live keys; reopen the
/// resulting single log, then compact into segments and reopen again.
fn reopen_phase(writes: u64, keys: u64, seg_bytes: u64) -> ReopenResult {
    let path = tmp("reopen.rwlog");
    {
        let store = DiskStore::open_with(&path, SyncPolicy::Never, single_file_policy()).unwrap();
        for i in 0..writes {
            let k = format!("k/{:06}", i % keys);
            let v = format!("value-{i:012}-padding-padding-padding");
            store.set(k.as_bytes(), v.as_bytes()).unwrap();
        }
        store.flush().unwrap();
    }
    let single_log_bytes = std::fs::metadata(&path).unwrap().len();
    let (live_keys, single_log_ms) = timed(|| {
        let store = DiskStore::open_with(&path, SyncPolicy::Never, single_file_policy()).unwrap();
        assert_eq!(store.recovery_report().records, writes);
        store.stats().live_keys
    });
    assert_eq!(live_keys as u64, keys);

    // Migrate: the segmented open replays the legacy file once, then
    // compaction rewrites the live set into sealed segments.
    let policy = SegmentPolicy::new(seg_bytes, 1.0);
    let segmented_bytes = {
        let store = DiskStore::open_with(&path, SyncPolicy::Never, policy).unwrap();
        let saved = store.compact().unwrap();
        assert!(saved > 0, "a 99% garbage log must shrink");
        store.stats().log_bytes
    };
    let mut segmented_segments = 0;
    let ((), segmented_ms) = timed(|| {
        let store = DiskStore::open_with(&path, SyncPolicy::Never, policy).unwrap();
        assert_eq!(store.stats().live_keys as u64, keys);
        segmented_segments = store.recovery_report().segments;
    });
    ReopenResult {
        writes,
        live_keys,
        single_log_bytes,
        single_log_ms,
        segmented_bytes,
        segmented_segments,
        segmented_ms,
        speedup: single_log_ms / segmented_ms,
    }
}

struct StallResult {
    db_bytes: u64,
    compact_ms: f64,
    saved_bytes: u64,
    max_read_stall_ms: f64,
    reads_during: u64,
}

/// Phase 2: hammer `get` from a second thread while `compact()` rewrites a
/// ~33%-garbage database, recording the worst single-read latency. The
/// second round skips the odd keys, so the victims (the first round's
/// segments) still hold half their records and the compaction copies them.
fn stall_phase(keys: u64, seg_bytes: u64) -> StallResult {
    let path = tmp("stall.rwlog");
    let policy = SegmentPolicy::new(seg_bytes, 1.0);
    let store = Arc::new(DiskStore::open_with(&path, SyncPolicy::Never, policy).unwrap());
    let value = vec![0x5Au8; 200];
    for round in 0..2 {
        for i in 0..keys {
            if round == 1 && i % 2 == 1 {
                continue;
            }
            store.set(format!("k/{i:06}").as_bytes(), &value).unwrap();
        }
    }
    let db_bytes = store.stats().log_bytes;

    // The compaction starts only once the reader has completed a read, and
    // only reads that start after it has begun are counted: a reader thread
    // the scheduler starts late can neither miss the compaction nor pad the
    // count with reads made before it.
    let ready = Arc::new(Barrier::new(2));
    let started = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let store = Arc::clone(&store);
        let (ready, started, done) = (Arc::clone(&ready), Arc::clone(&started), Arc::clone(&done));
        let value_len = value.len();
        std::thread::spawn(move || {
            let read = |i: u64| {
                let key = format!("k/{:06}", i % keys);
                let (got, ms) = timed(|| store.get(key.as_bytes()).unwrap());
                assert_eq!(got.map(|v| v.len()), Some(value_len));
                ms
            };
            read(0);
            ready.wait();
            let mut max_ms = 0.0f64;
            let mut reads = 0u64;
            let mut i = 1u64;
            while !done.load(Ordering::Relaxed) {
                let during = started.load(Ordering::Relaxed);
                let ms = read(i);
                if during {
                    max_ms = max_ms.max(ms);
                    reads += 1;
                }
                i += 1;
            }
            (max_ms, reads)
        })
    };
    ready.wait();
    started.store(true, Ordering::Relaxed);
    let (saved_bytes, compact_ms) = timed(|| store.compact().unwrap());
    done.store(true, Ordering::Relaxed);
    let (max_read_stall_ms, reads_during) = reader.join().unwrap();
    assert!(saved_bytes > 0);
    StallResult { db_bytes, compact_ms, saved_bytes, max_read_stall_ms, reads_during }
}

/// Phase 3: one deterministic op stream through all three backends; every
/// `scan_prefix` must agree bit-for-bit.
fn parity_phase(steps: u32) -> u32 {
    let legacy_path = tmp("parity-legacy.rwlog");
    let seg_path = tmp("parity-seg.rwlog");
    let memory = MemoryStore::new();
    let legacy =
        DiskStore::open_with(&legacy_path, SyncPolicy::Never, single_file_policy()).unwrap();
    let policy = SegmentPolicy::new(2048, 0.5);
    let mut seg = DiskStore::open_with(&seg_path, SyncPolicy::Never, policy).unwrap();

    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for step in 0..steps {
        let key = format!("k/{:03}", rng() % 200);
        if rng() % 5 == 0 {
            memory.delete(key.as_bytes()).unwrap();
            legacy.delete(key.as_bytes()).unwrap();
            seg.delete(key.as_bytes()).unwrap();
        } else {
            let value = format!("v-{step}-{:08x}", rng() as u32);
            memory.set(key.as_bytes(), value.as_bytes()).unwrap();
            legacy.set(key.as_bytes(), value.as_bytes()).unwrap();
            seg.set(key.as_bytes(), value.as_bytes()).unwrap();
        }
        // Stress the state machine mid-stream: crash (reopen) the
        // segmented store and compact it at different points.
        if step == steps / 3 {
            seg.compact().unwrap();
        }
        if step == 2 * steps / 3 {
            drop(seg);
            seg = DiskStore::open_with(&seg_path, SyncPolicy::Never, policy).unwrap();
        }
    }
    let mut checked = 0u32;
    for prefix in [&b""[..], b"k/", b"k/0", b"k/1", b"k/19", b"k/199", b"none"] {
        let want = memory.scan_prefix(prefix).unwrap();
        assert_eq!(
            legacy.scan_prefix(prefix).unwrap(),
            want,
            "legacy single-file scan diverged on {prefix:?}"
        );
        assert_eq!(
            seg.scan_prefix(prefix).unwrap(),
            want,
            "segmented scan diverged on {prefix:?}"
        );
        checked += 1;
    }
    checked
}

fn write_json(path: &str, mode: &str, reopen: &ReopenResult, stall: &StallResult, parity_prefixes: u32) {
    let out = format!(
        "{{\n  \"experiment\": \"E14 segmented storage engine\",\n  \"mode\": \"{mode}\",\n  \
         \"reopen\": {{\"writes\": {}, \"live_keys\": {}, \"single_log_bytes\": {}, \
         \"single_log_ms\": {:.1}, \"segmented_bytes\": {}, \"segmented_segments\": {}, \
         \"segmented_ms\": {:.2}, \"speedup\": {:.1}}},\n  \
         \"compaction_stall\": {{\"db_bytes\": {}, \"compact_ms\": {:.1}, \"saved_bytes\": {}, \
         \"max_read_stall_ms\": {:.2}, \"reads_during_compaction\": {}}},\n  \
         \"parity\": {{\"prefixes_checked\": {parity_prefixes}, \"bit_identical\": true}}\n}}\n",
        reopen.writes,
        reopen.live_keys,
        reopen.single_log_bytes,
        reopen.single_log_ms,
        reopen.segmented_bytes,
        reopen.segmented_segments,
        reopen.segmented_ms,
        reopen.speedup,
        stall.db_bytes,
        stall.compact_ms,
        stall.saved_bytes,
        stall.max_read_stall_ms,
        stall.reads_during,
    );
    std::fs::write(path, out).expect("write BENCH_E14.json");
}

fn main() {
    let _scratch = ScratchGuard;
    let smoke = std::env::var_os("REPROWD_E14_SMOKE").is_some();
    let (writes, keys, seg_bytes, stall_keys): (u64, u64, u64, u64) = if smoke {
        (100_000, 5_000, 256 << 10, 10_000)
    } else {
        (1_000_000, 10_000, 4 << 20, 100_000)
    };
    banner(
        "E14",
        &format!(
            "segmented storage engine (n={writes} writes over {keys} live keys{})",
            if smoke { ", SMOKE" } else { "" }
        ),
        "ROADMAP 'Pluggable storage backends' — bounded logs, non-blocking compaction",
    );

    // --- reopen: un-compacted single log vs compacted segments
    let reopen = reopen_phase(writes, keys, seg_bytes);
    table(
        &["layout", "log MB", "segments", "reopen ms", "speedup"],
        &[
            vec![
                "single log".into(),
                format!("{:.1}", reopen.single_log_bytes as f64 / 1e6),
                "1".into(),
                format!("{:.1}", reopen.single_log_ms),
                "1.0x".into(),
            ],
            vec![
                "segmented+compacted".into(),
                format!("{:.1}", reopen.segmented_bytes as f64 / 1e6),
                reopen.segmented_segments.to_string(),
                format!("{:.1}", reopen.segmented_ms),
                format!("{:.1}x", reopen.speedup),
            ],
        ],
    );
    assert!(
        reopen.speedup >= 5.0,
        "reopen after compaction must be >= 5x faster than the single log \
         (got {:.1}x: {:.1} ms vs {:.1} ms)",
        reopen.speedup,
        reopen.single_log_ms,
        reopen.segmented_ms
    );

    // --- read stalls during compaction
    let stall = stall_phase(stall_keys, seg_bytes.min(1 << 20));
    println!(
        "\ncompaction of a {:.1} MB / 33% garbage database: {:.1} ms wall, \
         reclaimed {:.1} MB;\nconcurrent reader: {} reads, max single-read latency {:.2} ms \
         ({:.1}% of the wall — the old engine's max stall was 100%)",
        stall.db_bytes as f64 / 1e6,
        stall.compact_ms,
        stall.saved_bytes as f64 / 1e6,
        stall.reads_during,
        stall.max_read_stall_ms,
        100.0 * stall.max_read_stall_ms / stall.compact_ms,
    );
    assert!(stall.reads_during > 0, "reads must complete while compaction runs");
    if smoke {
        // A 1-core CI box preempts the reader for whole scheduler slices;
        // only the stop-the-world regression (stall ≈ wall) is gated.
        assert!(
            stall.max_read_stall_ms < stall.compact_ms,
            "read stalled for the whole compaction ({:.2} ms of {:.2} ms)",
            stall.max_read_stall_ms,
            stall.compact_ms
        );
    } else {
        assert!(
            stall.max_read_stall_ms < stall.compact_ms / 5.0,
            "max read stall {:.2} ms is not a small fraction of the {:.2} ms rewrite — \
             compaction is holding the store lock",
            stall.max_read_stall_ms,
            stall.compact_ms
        );
    }

    // --- parity across backends
    let parity_steps = if smoke { 2_000 } else { 20_000 };
    let prefixes = parity_phase(parity_steps);
    println!(
        "\nparity: {parity_steps} ops through MemoryStore / single-file DiskStore / \
         segmented engine -> scan_prefix bit-identical on {prefixes} prefixes"
    );

    if smoke {
        println!("\nPASS (smoke): >=5x reopen, no stop-the-world stall, bit-identical scans. JSON not rewritten.");
    } else {
        let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E14.json");
        write_json(json_path, "full", &reopen, &stall, prefixes);
        println!(
            "\nPASS: {:.1}x reopen speedup; max read stall {:.2} ms during a {:.1} ms \
             compaction; bit-identical scans. Results recorded to BENCH_E14.json",
            reopen.speedup, stall.max_read_stall_ms, stall.compact_ms
        );
    }
}
