//! Reprowd's repository benchmark: the paper's Figure 2 loop (data →
//! presenter → publish → collect → aggregate) run fresh on disk, as a fully
//! cached rerun, and wire-bound, plus the streamed CrowdER join — timed end
//! to end, and, in a separate traced run, split by layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1|both> [--size full|tiny]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones, `both` every metric. Each is printed by name with its unit and
//! direction; the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. An operation fails if
//! it errors, panics, or produces a digest or crowd-call count other than
//! the pinned one (see [`pins`]); a rerun operation also fails if it
//! issues any crowd call. Database files live under `.bench_work/` in the
//! working directory and are removed on exit.

mod pins;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{Env, Outcome, Result, Size, Workload};

/// The quantile of per-operation throughput reported as `rows_per_s`.
/// Other tenants of a shared host only ever slow an operation down, and
/// they do so in phases lasting tens of seconds, so a run's median moves
/// with whichever phase it caught (±20% between runs on a 2-core host);
/// its fast tail is the program's own speed and repeats within a few
/// percent.
const THROUGHPUT_QUANTILE: f64 = 0.9;

/// Set-ups per end-to-end run, whose median is `setup_s`: at least the
/// first count, then more until they took the given seconds in total, up
/// to the second count — a fast set-up is noisy, so it is sampled more.
const SETUP_REPS: (usize, f64, usize) = (3, 1.0, 25);

/// Whether a metric is reported by the untraced or the traced run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    EndToEnd,
    PerLayer,
}

/// Every metric: name, unit, which direction is better, and kind.
const METRICS: &[(&str, &str, &str, Kind)] = &[
    ("rows_per_s", "rows/s", "higher", Kind::EndToEnd),
    ("setup_s", "s", "lower", Kind::EndToEnd),
    ("peak_rss_mb", "MB", "lower", Kind::EndToEnd),
    ("db_mb", "MB", "lower", Kind::EndToEnd),
    ("accuracy", "ratio", "higher", Kind::EndToEnd),
    ("crowddata.data_s", "s", "lower", Kind::PerLayer),
    ("crowddata.publish_s", "s", "lower", Kind::PerLayer),
    ("crowddata.collect_s", "s", "lower", Kind::PerLayer),
    ("crowddata.aggregate_s", "s", "lower", Kind::PerLayer),
    ("crowder.join_s", "s", "lower", Kind::PerLayer),
    ("hash.s", "s", "lower", Kind::PerLayer),
    ("hash.bytes", "bytes", "lower", Kind::PerLayer),
    ("codec.decode_s", "s", "lower", Kind::PerLayer),
    ("codec.encode_s", "s", "lower", Kind::PerLayer),
    ("codec.cells", "count", "lower", Kind::PerLayer),
    ("codec.bytes", "bytes", "lower", Kind::PerLayer),
    ("storage.get_s", "s", "lower", Kind::PerLayer),
    ("storage.batch_s", "s", "lower", Kind::PerLayer),
    ("storage.scan_s", "s", "lower", Kind::PerLayer),
    ("storage.open_s", "s", "lower", Kind::PerLayer),
    ("storage.get_calls", "count", "lower", Kind::PerLayer),
    ("storage.batch_calls", "count", "lower", Kind::PerLayer),
    ("storage.read_bytes", "bytes", "lower", Kind::PerLayer),
    ("storage.write_bytes", "bytes", "lower", Kind::PerLayer),
    ("storage.log_bytes", "bytes", "lower", Kind::PerLayer),
    ("storage.write_amp", "ratio", "lower", Kind::PerLayer),
    ("exec.round_trips", "count", "lower", Kind::PerLayer),
    ("exec.rows_per_call", "rows", "higher", Kind::PerLayer),
    ("exec.probe_calls", "count", "lower", Kind::PerLayer),
    ("cache.hit_ratio", "ratio", "higher", Kind::PerLayer),
    ("platform.publish_s", "s", "lower", Kind::PerLayer),
    ("platform.probe_s", "s", "lower", Kind::PerLayer),
    ("platform.fetch_s", "s", "lower", Kind::PerLayer),
    ("platform.wait_s", "s", "lower", Kind::PerLayer),
    ("platform.calls", "count", "lower", Kind::PerLayer),
    ("platform.effect_s", "s", "lower", Kind::PerLayer),
    ("platform.gate_wire_s", "s", "lower", Kind::PerLayer),
    ("platform.wire_round_trips", "count", "lower", Kind::PerLayer),
    ("sim.events", "count", "lower", Kind::PerLayer),
    ("sim.drain_s", "s", "lower", Kind::PerLayer),
    ("simjoin.candidates", "count", "lower", Kind::PerLayer),
    ("simjoin.s", "s", "lower", Kind::PerLayer),
    ("pipeline.peak_inflight_pairs", "count", "lower", Kind::PerLayer),
    ("tracing.overhead", "ratio", "lower", Kind::PerLayer),
];

/// Which metrics a run reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Trace {
    Off,
    On,
    Both,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: Trace,
    size: Size,
    /// Measure peak RSS in a child process of its own (off only in the
    /// benchmark's tests, whose executable is the test harness).
    rss_child: bool,
    /// Internal: run one operation and print this process's peak RSS.
    probe_rss: bool,
    /// Internal: the database a rerun probe reruns.
    db: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> std::result::Result<Args, String> {
    let mut args = Args {
        workload: Workload::Fig2FreshDisk,
        seed: 1,
        seconds: 10.0,
        trace: Trace::Off,
        size: Size::Full,
        rss_child: true,
        probe_rss: false,
        db: None,
    };
    let mut workload = None;
    while let Some(flag) = it.next() {
        if flag == "--probe-rss" {
            args.probe_rss = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::On,
                    "both" => Trace::Both,
                    _ => return Err(bad("trace")),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad("size")),
                }
            }
            "--db" => args.db = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn size_name(size: Size) -> &'static str {
    match size {
        Size::Full => "full",
        Size::Tiny => "tiny",
    }
}

/// The checked outcome of a whole run.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    /// Set when a check outside any one operation failed.
    broken: bool,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && !self.broken
    }
}

/// Counts operations and checks each one's digest and crowd calls against
/// the pin, or against the first operation of the run when the seed has
/// no pin.
struct Checker {
    workload: Workload,
    expected: Option<(u64, u64)>,
}

impl Checker {
    fn new(args: &Args) -> Checker {
        let expected = pins::lookup(args.workload.name(), size_name(args.size), args.seed);
        Checker { workload: args.workload, expected }
    }

    /// Runs one operation; returns it if it succeeded and checks out.
    fn run(&mut self, env: &Env, traced: bool, report: &mut Report) -> Option<Outcome> {
        report.attempted += 1;
        let outcome = match catch_unwind(AssertUnwindSafe(|| env.run_op(traced))) {
            Ok(Ok(outcome)) => outcome,
            Ok(Err(e)) => {
                eprintln!("operation failed: {e}");
                report.failed += 1;
                return None;
            }
            Err(_) => {
                eprintln!("operation panicked");
                report.failed += 1;
                return None;
            }
        };
        let got = (outcome.digest, outcome.crowd_calls);
        let expected = *self.expected.get_or_insert(got);
        let rerun = self.workload == Workload::Fig2RerunDisk;
        if got != expected || (rerun && (outcome.crowd_calls != 0 || outcome.sim_events != 0)) {
            eprintln!(
                "operation output differs: digest {:016x} with {} crowd calls, expected \
                 {:016x} with {}{}",
                got.0,
                got.1,
                expected.0,
                expected.1,
                if rerun { " (a rerun must issue none)" } else { "" }
            );
            report.failed += 1;
            return None;
        }
        Some(outcome)
    }
}

/// The `q`-quantile of `values` by nearest rank (0 when there are none).
fn quantile(mut values: Vec<f64>, q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

fn median(values: Vec<f64>) -> f64 {
    quantile(values, 0.5)
}

/// The untraced run: set-up several times, then operations for `seconds`,
/// then peak RSS from one more operation in a process of its own.
fn end_to_end(args: &Args, dir: &Path, report: &mut Report) -> Result<()> {
    let mut setups: Vec<f64> = Vec::new();
    let mut env = None;
    while setups.len() < SETUP_REPS.0
        || (setups.iter().sum::<f64>() < SETUP_REPS.1 && setups.len() < SETUP_REPS.2)
    {
        drop(env.take());
        let start = Instant::now();
        env = Some(Env::setup(args.workload, args.size, args.seed, dir, None)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let env = env.expect("set up at least once");
    let mut checker = Checker::new(args);
    let mut ops = Vec::new();
    let start = Instant::now();
    while report.attempted == 0 || start.elapsed().as_secs_f64() < args.seconds {
        ops.extend(checker.run(&env, false, report));
    }
    let rps: Vec<f64> = ops.iter().map(|o| o.rows as f64 / o.secs).collect();
    println!(
        "rows_per_s: p90 {:.1}, median {:.1}, over {} operations of {} rows, in run order: {}",
        quantile(rps.clone(), THROUGHPUT_QUANTILE),
        median(rps.clone()),
        ops.len(),
        env.inputs.rows(),
        rps.iter().map(|r| format!("{r:.0}")).collect::<Vec<_>>().join(" ")
    );
    if let Some(o) = ops.first() {
        println!("digest {:016x} crowd_calls {}", o.digest, o.crowd_calls);
    }
    let peak_rss = if args.rss_child { rss_in_child(args, &env)? } else { peak_rss_mb()? };
    let m = &mut report.metrics;
    m.insert("rows_per_s", quantile(rps, THROUGHPUT_QUANTILE));
    m.insert("setup_s", median(setups));
    m.insert("peak_rss_mb", peak_rss);
    m.insert("db_mb", median(ops.iter().map(|o| o.db_bytes as f64 / 1e6).collect()));
    m.insert("accuracy", median(ops.iter().map(|o| o.accuracy).collect()));
    Ok(())
}

/// The traced run: untraced and traced operations alternate for
/// `seconds`; per-layer values are medians over the traced ones, and
/// `tracing.overhead` compares the two kinds' throughput as `rows_per_s`
/// does.
fn per_layer(args: &Args, dir: &Path, report: &mut Report) -> Result<()> {
    let env = Env::setup(args.workload, args.size, args.seed, dir, None)?;
    let mut checker = Checker::new(args);
    let (mut plain_rps, mut traced_rps) = (Vec::new(), Vec::new());
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    // The cells of the last traced operation, and its candidate count.
    let mut last = None;
    let start = Instant::now();
    let mut attempts = 0u64;
    while attempts < 2 || start.elapsed().as_secs_f64() < args.seconds {
        let with_trace = attempts % 2 == 1;
        attempts += 1;
        let Some(mut outcome) = checker.run(&env, with_trace, report) else { continue };
        let rps = outcome.rows as f64 / outcome.secs;
        match outcome.traced.take() {
            Some(seen) => {
                traced_rps.push(rps);
                for (name, v) in seen.layers {
                    layers.entry(name).or_default().push(v);
                }
                last = Some((seen.cells, outcome.candidates));
            }
            None => plain_rps.push(rps),
        }
    }
    let m = &mut report.metrics;
    for (name, values) in layers {
        m.insert(name, median(values));
    }
    workload::replay_simjoin(&env, m);
    if let Some((cells, candidates)) = last {
        if let Err(e) = workload::replay_codec_and_hash(&cells, m) {
            eprintln!("{e}");
            report.broken = true;
        }
        if args.workload == Workload::CrowderStreamMem
            && m["simjoin.candidates"] != candidates as f64
        {
            eprintln!("the simjoin replay found another candidate count than the join");
            report.broken = true;
        }
    }
    let overhead =
        quantile(plain_rps, THROUGHPUT_QUANTILE) / quantile(traced_rps, THROUGHPUT_QUANTILE) - 1.0;
    m.insert("tracing.overhead", if overhead.is_finite() { overhead } else { 0.0 });
    Ok(())
}

/// Peak resident memory of this process so far, in MB.
fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// Runs one operation of the workload in a process of its own and returns
/// that process's peak RSS. A rerun probe reruns this run's database.
fn rss_in_child(args: &Args, env: &Env) -> Result<f64> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--size", size_name(args.size)])
        .arg("--probe-rss")
        .stderr(Stdio::inherit());
    if args.workload == Workload::Fig2RerunDisk {
        cmd.arg("--db").arg(&env.db);
    }
    let out = cmd.output()?;
    if !out.status.success() {
        return Err(format!("peak-RSS probe failed: {}", out.status).into());
    }
    let text = String::from_utf8(out.stdout)?;
    Ok(text.lines().last().ok_or("peak-RSS probe printed nothing")?.trim().parse()?)
}

/// The child side of [`rss_in_child`].
fn probe(args: &Args, dir: &Path) -> Result<f64> {
    let env = Env::setup(args.workload, args.size, args.seed, dir, args.db.as_deref())?;
    env.run_op(false)?;
    peak_rss_mb()
}

/// A per-process scratch directory, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: Workload) -> Result<WorkDir> {
        let root = std::env::current_dir()?.join(".bench_work");
        let dir = root.join(format!("{}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(root) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(root);
        }
    }
}

fn run(args: &Args) -> Result<Report> {
    let dir = WorkDir::create(args.workload)?;
    let mut report = Report::default();
    if args.trace != Trace::On {
        end_to_end(args, &dir.0, &mut report)?;
    }
    if args.trace != Trace::Off {
        per_layer(args, &dir.0, &mut report)?;
    }
    // A run whose operations all failed still reports every metric it owes.
    for &(name, _, _, kind) in METRICS {
        let owed = match kind {
            Kind::EndToEnd => args.trace != Trace::On,
            Kind::PerLayer => args.trace != Trace::Off,
        };
        if owed {
            report.metrics.entry(name).or_insert(0.0);
        }
    }
    Ok(report)
}

/// Formats a metric value as a JSON number, keeping every digit.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn print_report(report: &Report) {
    println!("{:<30} {:>8} {:>7}  value", "metric", "unit", "better");
    let mut fields = Vec::new();
    for &(name, unit, better, _) in METRICS {
        if let Some(&v) = report.metrics.get(name) {
            println!("{name:<30} {unit:>8} {better:>7}  {v}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            ));
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        fields.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1|both> \
                 [--size full|tiny]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.probe_rss {
        let out = WorkDir::create(args.workload).and_then(|dir| probe(&args, &dir.0));
        return match out {
            Ok(mb) => {
                println!("{mb}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(report) => {
            print_report(&report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn catalog(kind: Kind) -> Vec<(String, String, String)> {
        METRICS
            .iter()
            .filter(|m| m.3 == kind)
            .map(|&(n, u, b, _)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            spec[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m[f].as_str().expect("string field").to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), catalog(Kind::EndToEnd));
        assert_eq!(listed("per_layer"), catalog(Kind::PerLayer));
        let workloads: Vec<String> = spec["workloads"]
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| w["name"].as_str().expect("workload name").to_string())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    }

    #[test]
    fn tiny_runs_emit_every_metric() {
        for workload in Workload::ALL {
            let args = Args {
                workload,
                seed: 1,
                seconds: 0.0,
                trace: Trace::Both,
                size: Size::Tiny,
                rss_child: false,
                probe_rss: false,
                db: None,
            };
            let report = run(&args).expect("tiny run");
            assert!(report.correct(), "{}: a tiny run failed", workload.name());
            for &(name, ..) in METRICS {
                assert!(
                    report.metrics.contains_key(name),
                    "{}: metric {name} missing",
                    workload.name()
                );
            }
            let m = &report.metrics;
            if workload == Workload::Fig2RerunDisk {
                assert_eq!(m["platform.calls"], 0.0);
                assert_eq!(m["sim.events"], 0.0);
                assert_eq!(m["cache.hit_ratio"], 1.0);
            } else {
                assert!(m["platform.calls"] > 0.0, "{}", workload.name());
            }
            assert!(m["rows_per_s"] > 0.0 && m["db_mb"] > 0.0 && m["accuracy"] > 0.5);
        }
    }

    #[test]
    fn an_unexpected_digest_fails_the_operation() {
        let workload = Workload::Fig2LatencyMem;
        let dir = WorkDir::create(workload).expect("work dir");
        let env = Env::setup(workload, Size::Tiny, 1, &dir.0, None).expect("set-up");
        let (digest, calls) = pins::lookup(workload.name(), "tiny", 1).expect("pinned seed");
        let mut report = Report::default();
        let mut pinned = Checker { workload, expected: Some((digest, calls)) };
        assert!(pinned.run(&env, true, &mut report).is_some());
        let mut wrong = Checker { workload, expected: Some((digest ^ 1, calls)) };
        assert!(wrong.run(&env, false, &mut report).is_none());
        assert_eq!((report.attempted, report.failed), (2, 1));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let args = parse("--workload fig2_rerun_disk --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(args.workload, Workload::Fig2RerunDisk);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3.0, Trace::On));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload fig2_fresh_disk --trace 2").is_err());
        assert!(parse("--workload fig2_fresh_disk --seconds -1").is_err());
    }
}
