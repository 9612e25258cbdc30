//! E16 — memory of the Figure 2 loop at the north star's size: the peak
//! resident set of a fresh run and of a rerun of its database, at n=10⁵
//! rows on a `DiskStore` (`SyncPolicy::Never`).
//!
//! Each phase runs in a child process of its own (this executable, re-run
//! with `REPROWD_E16_PHASE` set), so each reports its own `VmHWM`: the
//! fresh phase builds the database, the rerun phase reopens it and must
//! reproduce the `mv` column with zero crowd calls. The parent records each
//! phase's peak, the database bytes and the bytes per row, and the wall
//! time of each step of the loop (`steps_s`): opening the database, data
//! with its presenter, publish, collect, and the majority vote.
//!
//! What it pins: each phase peaks under a per-row bound. A row holds its
//! object as a tree once and its task cell as encoded bytes (the object
//! and the rendered payload again, as text); the fresh phase adds the
//! simulator's copy of each task. So the bound tracks what one in-memory
//! JSON object and one stored cell cost.
//!
//! Writes `BENCH_E16.json` at the workspace root in full mode. Smoke mode
//! (`REPROWD_E16_SMOKE=1`, used by CI) runs at n=10⁴ under the same bounds.

use reprowd_bench::{banner, label_accuracy, label_objects, table};
use reprowd_core::exec::ExecutionConfig;
use reprowd_core::hash::{hash_value, hex};
use reprowd_core::presenter::Presenter;
use reprowd_core::value::Value;
use reprowd_core::CrowdContext;
use reprowd_platform::{CrowdPlatform, SimPlatform};
use reprowd_storage::{DiskStore, SegmentPolicy, SyncPolicy};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

const PHASE_VAR: &str = "REPROWD_E16_PHASE";
const DB_VAR: &str = "REPROWD_E16_DB";
const ROWS_VAR: &str = "REPROWD_E16_ROWS";

/// Peak resident bytes per input row each phase must stay under. The
/// peak per row barely moves between n=10⁴ and n=10⁵. With the simulator
/// keeping one slot per task, payload as text, the fresh phase measured
/// ~4.7 KB; the fresh bound keeps the ~36% margin it had over ~7.0 KB.
/// With the simulator's maps of decoded tasks it measured ~7.0–7.4 KB
/// (fresh) and ~3.6–3.9 KB (rerun); with each task cell decoded into a
/// tree, ~10.4 KB and ~7.1–7.4 KB; with the `BTreeMap` `json::Map` before
/// that, ~17.7 KB and ~11.4–11.6 KB.
const FRESH_PEAK_PER_ROW: f64 = 6_390.0;
const RERUN_PEAK_PER_ROW: f64 = 5_000.0;

/// The steps a phase times, in the order they run.
const STEPS: [&str; 5] = ["open", "data", "publish", "collect", "aggregate"];

/// What one phase's child process reports.
struct Phase {
    name: &'static str,
    peak_bytes: u64,
    wall_s: f64,
    /// Wall seconds of each of [`STEPS`].
    steps_s: [f64; STEPS.len()],
    api_calls: u64,
    mv_digest: String,
    accuracy: f64,
    db_bytes: u64,
}

/// Runs the Figure 2 loop once over the database at `db` and prints what
/// [`Phase`] needs on one line: the child side.
fn run_phase(db: &Path, n: usize) {
    // Each call records the wall time since the previous one: one step.
    let mut steps_s = Vec::with_capacity(STEPS.len());
    let mut lap = Instant::now();
    let mut step = || {
        steps_s.push(lap.elapsed().as_secs_f64());
        lap = Instant::now();
    };
    let platform = Arc::new(SimPlatform::quick(7, 0.9, 16));
    let store = DiskStore::open_with(db, SyncPolicy::Never, SegmentPolicy::default())
        .expect("open the E16 database");
    let cc = CrowdContext::with_config(
        Arc::clone(&platform) as Arc<dyn CrowdPlatform>,
        Arc::new(store),
        ExecutionConfig::default(),
    )
    .expect("E16 context");
    step();
    let cd = cc
        .crowddata("e16")
        .and_then(|cd| cd.data(label_objects(n, 0.2)))
        .and_then(|cd| cd.presenter(Presenter::image_label("Is this a cat?", &["Yes", "No"])))
        .expect("data and presenter");
    step();
    let cd = cd.publish(3).expect("publish");
    step();
    let cd = cd.collect().expect("collect");
    step();
    let cd = cd.majority_vote().expect("majority vote");
    step();
    // The loop's wall time leaves the open out.
    let wall_s: f64 = steps_s[1..].iter().sum();
    let mv = cd.column("mv").expect("mv column");
    let steps: Vec<String> = steps_s.iter().map(f64::to_string).collect();
    println!(
        "{} {wall_s} {} {} {} {}",
        peak_rss_bytes(),
        platform.api_calls(),
        hex(hash_value(&Value::Array(mv.clone()))),
        label_accuracy(&mv),
        steps.join(" ")
    );
}

/// `VmHWM` of this process, in bytes.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb * 1024
}

/// Runs `name` in a child process of this executable.
fn spawn_phase(name: &'static str, db: &Path, n: usize) -> Phase {
    let out = Command::new(std::env::current_exe().expect("current executable"))
        .env(PHASE_VAR, name)
        .env(DB_VAR, db)
        .env(ROWS_VAR, n.to_string())
        .output()
        .expect("spawn E16 phase");
    assert!(
        out.status.success(),
        "E16 {name} phase failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("phase output is UTF-8");
    let fields: Vec<&str> = text.lines().last().expect("phase printed a line").split(' ').collect();
    let [peak, wall, calls, digest, accuracy, ref steps @ ..] = fields[..] else {
        panic!("E16 {name} phase printed {text:?}");
    };
    let steps_s: Vec<f64> = steps.iter().map(|s| s.parse().expect("step seconds")).collect();
    Phase {
        name,
        peak_bytes: peak.parse().expect("peak bytes"),
        wall_s: wall.parse().expect("wall seconds"),
        steps_s: steps_s.try_into().unwrap_or_else(|_| panic!("E16 {name} phase printed {text:?}")),
        api_calls: calls.parse().expect("api calls"),
        mv_digest: digest.to_string(),
        accuracy: accuracy.parse().expect("accuracy"),
        db_bytes: dir_bytes(db.parent().expect("database path has a directory")),
    }
}

/// Bytes of every file in `dir`: the database's file family.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read the database directory")
        .map(|e| e.and_then(|e| e.metadata()).expect("database file metadata").len())
        .sum()
}

fn write_json(path: &str, n: usize, phases: &[Phase]) {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"E16 memory of the Figure 2 loop\",\n");
    out.push_str("  \"mode\": \"full\",\n");
    out.push_str(&format!(
        "  \"workload\": {{\"rows\": {n}, \"store\": \"DiskStore\", \"sync\": \"Never\", \
         \"redundancy\": 3, \"workers\": 7}},\n"
    ));
    out.push_str("  \"phases\": [\n");
    for (i, p) in phases.iter().enumerate() {
        let steps: Vec<String> =
            STEPS.iter().zip(p.steps_s).map(|(step, s)| format!("\"{step}\": {s:.3}")).collect();
        out.push_str(&format!(
            "    {{\"phase\": \"{}\", \"peak_rss_mb\": {:.1}, \"peak_bytes_per_row\": {:.0}, \
             \"db_mb\": {:.1}, \"db_bytes_per_row\": {:.0}, \"wall_s\": {:.2}, \
             \"steps_s\": {{{}}}, \"api_calls\": {}, \"accuracy\": {:.4}}}{}\n",
            p.name,
            p.peak_bytes as f64 / 1e6,
            p.peak_bytes as f64 / n as f64,
            p.db_bytes as f64 / 1e6,
            p.db_bytes as f64 / n as f64,
            p.wall_s,
            steps.join(", "),
            p.api_calls,
            p.accuracy,
            if i + 1 < phases.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write BENCH_E16.json");
}

fn main() {
    if let Ok(phase) = std::env::var(PHASE_VAR) {
        let db = PathBuf::from(std::env::var_os(DB_VAR).expect("database path for the phase"));
        let n = std::env::var(ROWS_VAR).ok().and_then(|n| n.parse().ok()).expect("row count");
        assert!(phase == "fresh" || phase == "rerun", "unknown E16 phase {phase:?}");
        run_phase(&db, n);
        return;
    }
    let smoke = std::env::var_os("REPROWD_E16_SMOKE").is_some();
    let n: usize = if smoke { 10_000 } else { 100_000 };
    banner(
        "E16",
        &format!(
            "Memory: the Figure 2 loop at n={n} on a DiskStore, fresh then rerun{}",
            if smoke { " (SMOKE)" } else { "" }
        ),
        "ROADMAP north star: a whole experiment rerun at n up to 10^5 rows",
    );
    let dir = std::env::temp_dir().join(format!("reprowd-e16-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear the E16 directory");
    }
    std::fs::create_dir_all(&dir).expect("create the E16 directory");
    let db = dir.join("db.rwlog");
    let phases = [spawn_phase("fresh", &db, n), spawn_phase("rerun", &db, n)];
    std::fs::remove_dir_all(&dir).expect("remove the E16 directory");

    let rows: Vec<Vec<String>> = phases
        .iter()
        .map(|p| {
            vec![
                p.name.to_string(),
                format!("{:.1}", p.peak_bytes as f64 / 1e6),
                format!("{:.0}", p.peak_bytes as f64 / n as f64),
                format!("{:.1}", p.db_bytes as f64 / 1e6),
                format!("{:.0}", p.db_bytes as f64 / n as f64),
                format!("{:.2}", p.wall_s),
                p.api_calls.to_string(),
                format!("{:.3}", p.accuracy),
            ]
        })
        .collect();
    table(
        &["phase", "peak MB", "peak B/row", "db MB", "db B/row", "wall s", "api calls", "accuracy"],
        &rows,
    );
    let mut header = vec!["phase"];
    header.extend(STEPS.iter().map(|step| step.to_owned()));
    let rows: Vec<Vec<String>> = phases
        .iter()
        .map(|p| {
            let mut row = vec![p.name.to_string()];
            row.extend(p.steps_s.iter().map(|s| format!("{s:.3}")));
            row
        })
        .collect();
    println!("\nwall seconds per step:");
    table(&header, &rows);

    let [fresh, rerun] = &phases;
    assert!(fresh.api_calls > 0, "the fresh phase must crowdsource");
    assert_eq!(rerun.api_calls, 0, "the rerun must make zero crowd calls");
    assert_eq!(rerun.mv_digest, fresh.mv_digest, "the rerun must reproduce the mv column");
    assert_eq!(rerun.db_bytes, fresh.db_bytes, "the rerun must write nothing");
    for (phase, bound) in [(fresh, FRESH_PEAK_PER_ROW), (rerun, RERUN_PEAK_PER_ROW)] {
        let per_row = phase.peak_bytes as f64 / n as f64;
        assert!(
            per_row < bound,
            "{} phase peaked at {per_row:.0} bytes per row, over its bound of {bound:.0}",
            phase.name
        );
    }
    if smoke {
        println!(
            "\nPASS (smoke): both phases under their per-row peak bounds. JSON not rewritten."
        );
    } else {
        let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E16.json");
        write_json(json_path, n, &phases);
        println!(
            "\nPASS: both phases under their per-row peak bounds, zero-call identical rerun; \
             results recorded to BENCH_E16.json"
        );
    }
}
