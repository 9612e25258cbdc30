//! The pipelined execution engine: overlapped platform round-trips with
//! deterministic, in-order commits.
//!
//! PR 2 batched `publish`/`collect`, but the batches themselves ran
//! strictly one after another — on any real crowd backend, where a
//! round-trip costs tens of milliseconds of wire latency, that latency is
//! paid serially. This module adds the missing overlap without giving up
//! one bit of reproducibility:
//!
//! * **A bounded-depth scheduler** (plain threads and channels): up to
//!   [`ExecutionConfig::inflight_batches`](crate::exec::ExecutionConfig::inflight_batches)
//!   batch jobs are in flight at once, with claim backpressure so resident
//!   work never outruns the commit frontier by more than the window.
//!   Depth 1 degenerates to an inline loop — bit-for-bit the sequential
//!   engine.
//! * **Ordered effects** (the platform crate's [`IssueGate`]): every
//!   platform call a job makes is numbered with a *slot*, and the call's
//!   effect — id
//!   allocation, clock ticks, budget charges, API accounting — waits its
//!   turn. The platform therefore observes the **exact call sequence a
//!   sequential run issues, at every depth**; only the wire time overlaps.
//!   This is why columns, cache contents, and call counts are bit-identical
//!   across in-flight depths: determinism is proved by call-sequence
//!   equality, not argued per platform.
//! * **Ordered commits**: completed jobs commit to the store strictly in
//!   job order, on the coordinating thread. A failure at job `k` cancels
//!   the issue gate for everything after `k` (see
//!   [`IssueGate::close_from`](reprowd_platform::IssueGate::close_from)),
//!   commits exactly the jobs before `k`, and reports `k`'s error — the
//!   same store prefix and, for errors raised by the platform calls
//!   themselves, the same platform state a sequential run stopping at `k`
//!   leaves. (Client-side post-checks that fail *after* a call returned
//!   cancel at the commit barrier instead, so up to the in-flight window
//!   of later batches may already be on the platform — the same bounded
//!   exposure as the documented crash window.)
//!
//! On top of the scheduler, [`run_stream`] fuses the whole
//! publish→wait→fetch→commit lifecycle per chunk and accepts the
//! candidates as an **iterator**, so operators (sort, max, CrowdER join)
//! can generate candidate pairs lazily: generation interleaves with
//! publishing, at most a window's worth of rows is resident, and a join
//! over 10⁴ records no longer materializes an O(n²) pair vector. The
//! streamed schedule issues each chunk's probe → publish → wait → fetch in
//! one fixed slot order, so streamed results are *also* bit-identical
//! across depths — the in-flight depth is a pure performance knob
//! everywhere.

use crate::context::CrowdContext;
use crate::crowddata::RunStats;
use crate::error::{Error, Result};
use crate::hash::RowKeyer;
use crate::presenter::Presenter;
use crate::store::{ExperimentStore, Manifest, StoredResult, StoredTask};
use crate::value::{canonical, Value};
use reprowd_platform::types::{TaskId, TaskSpec};
use reprowd_platform::IssueGate;
use reprowd_quality::{majority_vote_matrix, TiePolicy, VoteMatrix};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

// ---------------------------------------------------------------- driver

/// Worker → coordinator message: a finished job, or a source failure.
enum Msg<J, T> {
    Finished(usize, J, Result<T>),
    SourceFailed(usize, Error),
}

/// Runs jobs through the bounded-depth pipeline.
///
/// * `source(k)` produces job `k` (`None` = stream exhausted). Called in
///   ascending `k` under a lock, so stateful sources (iterators,
///   running hashes) see their pulls in order even though workers race to
///   claim.
/// * `work(k, &mut job)` performs the job's platform round-trips on a
///   worker thread; its gated calls must use slots
///   `[k·slots_per_job, (k+1)·slots_per_job)`.
/// * `commit(k, job, out)` runs on the calling thread, strictly in
///   ascending `k`.
///
/// On the first error (by job order): jobs before it are committed, the
/// gate is closed from that job's slots, and that error is returned. A
/// panic in `source`, `work`, or `commit` is such an error, at every depth.
pub(crate) fn run_windowed<J, T>(
    depth: usize,
    slots_per_job: u64,
    gate: &IssueGate,
    mut source: impl FnMut(usize) -> Result<Option<J>> + Send,
    work: impl Fn(usize, &mut J) -> Result<T> + Sync,
    mut commit: impl FnMut(usize, J, T) -> Result<()>,
) -> Result<()>
where
    J: Send,
    T: Send,
{
    let mut source = move |k: usize| caught("source", k, || source(k));
    let work = move |k: usize, job: &mut J| caught("job", k, || work(k, job));
    let mut commit = move |k: usize, job: J, out: T| caught("commit", k, || commit(k, job, out));
    if depth <= 1 {
        // The sequential engine, verbatim: claim, work, commit, repeat.
        let mut k = 0usize;
        while let Some(mut job) = source(k)? {
            let out = work(k, &mut job)?;
            commit(k, job, out)?;
            k += 1;
        }
        return Ok(());
    }

    struct SourceState<S> {
        next: usize,
        /// Jobs committed so far — claims may run at most `window` ahead
        /// of this (backpressure: bounds resident jobs, and with them the
        /// streaming operators' memory, by the in-flight window).
        committed: usize,
        done: bool,
        f: S,
    }
    let window = 2 * depth; // `depth` in work + `depth` awaiting commit
    let claims = Mutex::new(SourceState { next: 0, committed: 0, done: false, f: source });
    let claims_cv = std::sync::Condvar::new();
    let abort = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<Msg<J, T>>();

    std::thread::scope(|scope| {
        for _ in 0..depth {
            let tx = tx.clone();
            let claims = &claims;
            let claims_cv = &claims_cv;
            let abort = &abort;
            let work = &work;
            scope.spawn(move || loop {
                let claimed = {
                    let mut s = claims.lock().expect("pipeline claim lock");
                    loop {
                        if abort.load(Ordering::Relaxed) || s.done {
                            break;
                        }
                        if s.next < s.committed + window {
                            break;
                        }
                        s = claims_cv.wait(s).expect("pipeline claim wait");
                    }
                    if abort.load(Ordering::Relaxed) || s.done {
                        None
                    } else {
                        let k = s.next;
                        match (s.f)(k) {
                            Ok(Some(job)) => {
                                s.next += 1;
                                Some((k, job))
                            }
                            Ok(None) => {
                                s.done = true;
                                None
                            }
                            Err(e) => {
                                s.done = true;
                                let _ = tx.send(Msg::SourceFailed(k, e));
                                None
                            }
                        }
                    }
                };
                let Some((k, mut job)) = claimed else { return };
                let out = work(k, &mut job);
                let failed = out.is_err();
                let _ = tx.send(Msg::Finished(k, job, out));
                if failed {
                    return;
                }
            });
        }
        drop(tx);

        // Coordinator: buffer out-of-order completions, commit in order,
        // stop at the first error by job index.
        let mut buffer: BTreeMap<usize, (J, T)> = BTreeMap::new();
        let mut next_commit = 0usize;
        let mut first_err: Option<(usize, Error)> = None;
        let fail = |k: usize, e: Error, first_err: &mut Option<(usize, Error)>| {
            abort.store(true, Ordering::Relaxed);
            gate.close_from(k as u64 * slots_per_job);
            if first_err.as_ref().is_none_or(|(fk, _)| k < *fk) {
                *first_err = Some((k, e));
            }
            // Wake workers parked on the claim backpressure so they
            // observe the abort and exit.
            claims_cv.notify_all();
        };
        for msg in rx {
            match msg {
                Msg::Finished(k, job, Ok(out)) => {
                    buffer.insert(k, (job, out));
                }
                Msg::Finished(k, _, Err(e)) | Msg::SourceFailed(k, e) => {
                    fail(k, e, &mut first_err);
                }
            }
            let before = next_commit;
            while first_err.as_ref().is_none_or(|(fk, _)| next_commit < *fk) {
                let Some((job, out)) = buffer.remove(&next_commit) else { break };
                if let Err(e) = commit(next_commit, job, out) {
                    fail(next_commit, e, &mut first_err);
                    break;
                }
                next_commit += 1;
            }
            if next_commit != before {
                // Release claim backpressure for the committed jobs.
                claims.lock().expect("pipeline claim lock").committed = next_commit;
                claims_cv.notify_all();
            }
        }
        match first_err {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    })
}

/// Runs one pipeline callback, turning a panic into an error. Uncaught, a
/// panicking job never commits, so at depth > 1 the other workers stay
/// parked on the claim backpressure and the run hangs instead of failing.
fn caught<R>(what: &str, k: usize, f: impl FnOnce() -> Result<R>) -> Result<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string payload");
        Err(Error::State(format!("pipeline {what} {k} panicked: {msg}")))
    })
}

/// The common chunked single-slot pipeline: splits `items` into
/// `batch_size` chunks, owns the issue gate, and runs each chunk through
/// `work` (one gated platform call, slot = chunk index) and `commit`
/// (strictly in chunk order). The classic publish, status, and fetch
/// passes are all instances of this shape.
pub(crate) fn run_chunked<I: Sync, T: Send>(
    depth: usize,
    batch_size: usize,
    items: &[I],
    work: impl Fn(u64, &[I], &IssueGate) -> Result<T> + Sync,
    mut commit: impl FnMut(&[I], T) -> Result<()>,
) -> Result<()> {
    let gate = IssueGate::new();
    let mut chunks = items.chunks(batch_size);
    run_windowed(
        depth,
        1,
        &gate,
        |_k| Ok(chunks.next()),
        |k, chunk: &mut &[I]| work(k as u64, chunk, &gate),
        |_k, chunk, out| commit(chunk, out),
    )
}

// ----------------------------------------------------------- shared bits

/// Resolves (or creates) the platform project an experiment publishes
/// into, persisting a newly created id into the manifest. Shared by the
/// classic `publish` path and the streaming runner so both follow the same
/// revalidation contract (a fresh platform instance may have lost the
/// recorded project).
pub(crate) fn ensure_project(
    cc: &CrowdContext,
    manifest: &mut Manifest,
    presenter: &Presenter,
) -> Result<u64> {
    if let Some(pid) = manifest.project_id {
        if cc.platform().project(pid).is_ok() {
            return Ok(pid);
        }
    }
    let pid = cc
        .platform()
        .create_project(&format!("{}:{}", manifest.name, presenter.name))?;
    manifest.project_id = Some(pid);
    cc.store().manifests.put(manifest.name.as_bytes(), manifest)?;
    Ok(pid)
}

/// Majority vote over one row's runs, against an explicit answer space —
/// the streaming counterpart of
/// [`CrowdData::majority_vote`](crate::CrowdData::majority_vote), with
/// identical semantics: answers outside the space are dropped, ties break
/// toward the earlier space entry, no votes yields `Null`.
pub fn majority_answer(runs: &[reprowd_platform::types::TaskRun], space: &[Value]) -> Value {
    let index: HashMap<String, usize> =
        space.iter().enumerate().map(|(i, v)| (canonical(v), i)).collect();
    let mut matrix = VoteMatrix::new(space.len().max(1), 1);
    for run in runs {
        if let Some(&label) = index.get(&canonical(&run.answer)) {
            matrix.push_vote(0, run.worker_id, label);
        }
    }
    match majority_vote_matrix(&matrix, TiePolicy::LowestLabel)[0] {
        Some(l) => space.get(l).cloned().unwrap_or(Value::Null),
        None => Value::Null,
    }
}

// ------------------------------------------------------------- streaming

/// What to run a streamed experiment as: the cache namespace, the task UI,
/// and the redundancy — the same three things the classic
/// `presenter(...).publish(n)` chain fixes.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Experiment name (cache namespace, same rules as
    /// [`CrowdContext::crowddata`](crate::CrowdContext::crowddata)).
    pub experiment: String,
    /// The task UI; its fingerprint keys the cache exactly as in the
    /// classic path, so streamed and classic runs of the same experiment
    /// share cells.
    pub presenter: Presenter,
    /// Workers per task.
    pub n_assignments: u32,
}

/// One collected row handed to the streaming sink, in input order.
#[derive(Debug, Clone)]
pub struct StreamedRow {
    /// Position of the candidate in the input stream.
    pub index: usize,
    /// The candidate object.
    pub object: Value,
    /// The collected (or cache-served) result cell.
    pub result: StoredResult,
}

/// Outcome accounting of a [`run_stream`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamReport {
    /// Cache-reuse statistics, same semantics as
    /// [`CrowdData::run_stats`](crate::CrowdData::run_stats).
    pub stats: RunStats,
    /// Rows streamed through (candidates consumed).
    pub rows: u64,
    /// Chunks the stream was split into.
    pub chunks: u64,
    /// High-water mark of rows resident in the pipeline at once (claimed
    /// but not yet committed) — the operators' memory-bound guarantee:
    /// bounded by the in-flight window, never by the candidate count.
    pub peak_inflight_rows: usize,
}

/// Per-row state as a chunk moves through its lifecycle.
struct StreamRow {
    index: usize,
    key: String,
    object: Value,
    /// Result served from the cache (skips the platform entirely).
    cached_result: Option<StoredResult>,
    /// The task cell: cached, or freshly published by this chunk.
    task: Option<StoredTask>,
    /// Task was published (or re-published) by this chunk → persist it.
    fresh: bool,
    /// The cached task was lost by the platform and re-published.
    republished: bool,
    /// Workers to ask if this row publishes: the stream's redundancy for
    /// fresh rows, but the *stored task's* redundancy when re-publishing
    /// a platform-lost task — matching the classic collect path, which
    /// republishes under the redundancy the cell was created with.
    redundancy: u32,
    /// The fetched result (for rows that went to the platform).
    fetched: Option<StoredResult>,
}

struct StreamChunk {
    rows: Vec<StreamRow>,
    probed: u64,
}

/// Streams `candidates` through the full publish→wait→fetch lifecycle and
/// hands each collected row to `sink`, in input order.
///
/// This is the operators' execution engine: candidates are pulled lazily
/// (generation interleaves with publishing), chunked by the context's
/// [`batch_size`](crate::CrowdContext::batch_size), and processed with up
/// to [`inflight_batches`](crate::exec::ExecutionConfig::inflight_batches)
/// chunks in flight. Caching, keys, lost-task republishing, and metrics
/// all match the classic `publish`/`collect` path — a streamed rerun of a
/// classic run (or vice versa) is served from the same cells.
///
/// Unlike the classic path, each chunk *waits for and fetches* its own
/// tasks before later chunks publish (one fixed slot order per chunk:
/// probe → publish → wait → fetch), so on a simulated crowd the answers
/// are those of a crowd that works chunk by chunk. The schedule is fixed
/// per `(stream, batch_size)`: results are bit-identical at every
/// in-flight depth, and reruns are free.
pub fn run_stream(
    cc: &CrowdContext,
    spec: &StreamSpec,
    candidates: impl Iterator<Item = Value> + Send,
    mut sink: impl FnMut(StreamedRow) -> Result<()>,
) -> Result<StreamReport> {
    crate::context::validate_experiment_name(&spec.experiment)?;
    if spec.n_assignments == 0 {
        return Err(Error::State("n_assignments must be positive".into()));
    }
    let fp = spec.presenter.fingerprint();
    let mut manifest = match cc.store().manifests.get(spec.experiment.as_bytes())? {
        Some(m) => m,
        None => Manifest::new(&spec.experiment),
    };
    if manifest.presenter_fingerprint.as_deref() != Some(fp.as_str())
        || manifest.n_assignments != Some(spec.n_assignments)
    {
        manifest.presenter_fingerprint = Some(fp.clone());
        manifest.n_assignments = Some(spec.n_assignments);
        cc.store().manifests.put(spec.experiment.as_bytes(), &manifest)?;
    }

    let batch_size = cc.exec().batch_size();
    let depth = cc.exec().inflight_batches();
    let gate = IssueGate::new();
    // The project is resolved lazily, once, by the first chunk that
    // actually publishes — a fully cached stream stays platform-free.
    let project: Mutex<(Manifest, Option<u64>)> = Mutex::new((manifest, None));
    let inflight = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);

    let mut report = StreamReport::default();
    let mut iter = candidates;
    let mut keyer = RowKeyer::default();
    let mut next_index = 0usize;

    let name = spec.experiment.clone();
    let presenter = &spec.presenter;
    let n_assignments = spec.n_assignments;

    run_windowed(
        depth,
        4,
        &gate,
        // Source: pull one chunk of candidates, keyed like the classic
        // `data(...)` step (streamed and classic runs share the cache).
        |_k| {
            let mut rows = Vec::new();
            for object in iter.by_ref().take(batch_size) {
                rows.push(StreamRow {
                    index: next_index,
                    key: ExperimentStore::row_key(&name, &fp, &keyer.key(&object)),
                    object,
                    cached_result: None,
                    task: None,
                    fresh: false,
                    republished: false,
                    redundancy: n_assignments,
                    fetched: None,
                });
                next_index += 1;
            }
            if rows.is_empty() {
                return Ok(None);
            }
            let now = inflight.fetch_add(rows.len(), Ordering::Relaxed) + rows.len();
            peak.fetch_max(now, Ordering::Relaxed);
            Ok(Some(StreamChunk { rows, probed: 0 }))
        },
        // Work: the chunk's whole lifecycle, four gated slots.
        |k, chunk: &mut StreamChunk| {
            let base = k as u64 * 4;
            // Cache pass (reads only; keys are unique per row, so reads
            // racing earlier chunks' commits cannot observe this stream's
            // own rows half-written).
            for row in chunk.rows.iter_mut() {
                if let Some(res) = cc.store().results.get(row.key.as_bytes())? {
                    row.cached_result = Some(res);
                } else if let Some(task) = cc.store().tasks.get(row.key.as_bytes())? {
                    row.task = Some(task);
                } else {
                    row.fresh = true;
                }
            }
            // Slot 1: probe cached tasks — a restarted platform may have
            // lost them, exactly like the classic collect status pass.
            let probe_at: Vec<usize> = (0..chunk.rows.len())
                .filter(|&p| chunk.rows[p].task.is_some() && chunk.rows[p].cached_result.is_none())
                .collect();
            let ids: Vec<TaskId> = probe_at
                .iter()
                .map(|&p| chunk.rows[p].task.as_ref().expect("probed row has task").task.id)
                .collect();
            let statuses = cc.platform().are_complete_pipelined(&ids, &gate, base)?;
            crate::crowddata::check_bulk_len("are_complete", statuses.len(), ids.len())?;
            chunk.probed = ids.len() as u64;
            for (&p, status) in probe_at.iter().zip(statuses) {
                if status.is_none() {
                    let row = &mut chunk.rows[p];
                    // Republish under the lost cell's own redundancy, as
                    // the classic collect path does.
                    row.redundancy = row
                        .task
                        .take()
                        .expect("probed row has task")
                        .n_assignments;
                    row.fresh = true;
                    row.republished = true;
                }
            }
            // Slot 2: publish the rows that need the crowd.
            let publish_at: Vec<usize> =
                (0..chunk.rows.len()).filter(|&p| chunk.rows[p].fresh).collect();
            if publish_at.is_empty() {
                // Nothing to publish: advance the slot without a request.
                cc.platform().publish_tasks_pipelined(0, Vec::new(), &gate, base + 1)?;
            } else {
                let pid = {
                    let mut slot = project.lock().expect("stream project lock");
                    match slot.1 {
                        Some(pid) => pid,
                        None => {
                            let (manifest, cached) = &mut *slot;
                            let pid = ensure_project(cc, manifest, presenter)?;
                            *cached = Some(pid);
                            pid
                        }
                    }
                };
                let specs: Vec<TaskSpec> = publish_at
                    .iter()
                    .map(|&p| TaskSpec {
                        payload: presenter.render(&chunk.rows[p].object),
                        n_assignments: chunk.rows[p].redundancy,
                    })
                    .collect();
                let tasks = cc.platform().publish_tasks_pipelined(pid, specs, &gate, base + 1)?;
                crate::crowddata::check_bulk_len("publish_tasks", tasks.len(), publish_at.len())?;
                for (&p, task) in publish_at.iter().zip(tasks) {
                    let row = &mut chunk.rows[p];
                    row.task = Some(StoredTask {
                        task,
                        object: row.object.clone(),
                        n_assignments: row.redundancy,
                    });
                }
            }
            // Slots 3 and 4: wait for this chunk's tasks, then fetch them.
            let pending_at: Vec<usize> = (0..chunk.rows.len())
                .filter(|&p| chunk.rows[p].cached_result.is_none())
                .collect();
            let ids: Vec<TaskId> = pending_at
                .iter()
                .map(|&p| chunk.rows[p].task.as_ref().expect("pending row has task").task.id)
                .collect();
            cc.platform().run_until_complete_pipelined(&ids, &gate, base + 2)?;
            let runs_per_task = cc.platform().fetch_runs_bulk_pipelined(&ids, &gate, base + 3)?;
            crate::crowddata::check_bulk_len("fetch_runs_bulk", runs_per_task.len(), ids.len())?;
            for (&p, runs) in pending_at.iter().zip(runs_per_task) {
                chunk.rows[p].fetched = Some(StoredResult { runs });
            }
            Ok(())
        },
        // Commit: persist, meter, account, and hand rows to the sink — in
        // chunk order.
        |_k, chunk, ()| {
            let task_cells: Vec<(String, StoredTask)> = chunk
                .rows
                .iter()
                .filter(|r| r.fresh)
                .map(|r| (r.key.clone(), r.task.clone().expect("fresh row has task")))
                .collect();
            let result_cells: Vec<(String, StoredResult)> = chunk
                .rows
                .iter()
                .filter(|r| r.fetched.is_some())
                .map(|r| (r.key.clone(), r.fetched.clone().expect("checked")))
                .collect();
            if chunk.probed > 0 {
                cc.exec().metrics().record_probe(chunk.probed);
            }
            if !task_cells.is_empty() {
                cc.exec().metrics().record_publish(task_cells.len() as u64);
                cc.store().put_task_batch(&task_cells)?;
            }
            if !result_cells.is_empty() {
                cc.exec().metrics().record_fetch(result_cells.len() as u64);
                cc.store().put_result_batch(&result_cells)?;
            }
            inflight.fetch_sub(chunk.rows.len(), Ordering::Relaxed);
            report.chunks += 1;
            for row in chunk.rows {
                report.rows += 1;
                let result = match (row.cached_result, row.fetched) {
                    (Some(res), _) => {
                        // Same accounting as a classic cached rerun: both
                        // the task and the result cells were reused.
                        report.stats.results_reused += 1;
                        report.stats.tasks_reused += 1;
                        res
                    }
                    (None, Some(res)) => {
                        report.stats.results_collected += 1;
                        if row.republished {
                            // Classic lost-task accounting: the cached
                            // cell was reused, then re-published.
                            report.stats.tasks_reused += 1;
                            report.stats.tasks_republished += 1;
                        } else if row.fresh {
                            report.stats.tasks_published += 1;
                        } else {
                            report.stats.tasks_reused += 1;
                        }
                        res
                    }
                    (None, None) => {
                        return Err(Error::State(format!(
                            "streamed row {} finished without a result", row.index
                        )));
                    }
                };
                sink(StreamedRow { index: row.index, object: row.object, result })?;
            }
            Ok(())
        },
    )?;
    report.peak_inflight_rows = peak.load(Ordering::Relaxed);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::val;
    use reprowd_platform::Error as PlatformError;

    // ------------------------------------------------------- run_windowed

    #[test]
    fn commits_in_order_at_every_depth() {
        for depth in [1usize, 2, 4, 8] {
            let gate = IssueGate::new();
            let mut jobs = (0..17u64).collect::<Vec<_>>().into_iter();
            let committed = std::cell::RefCell::new(Vec::new());
            run_windowed(
                depth,
                1,
                &gate,
                |_k| Ok(jobs.next()),
                |k, job: &mut u64| {
                    // Effects in slot order even though workers race.
                    let turn = gate.turn(k as u64)?;
                    turn.complete();
                    Ok(*job * 2)
                },
                |k, job, out| {
                    assert_eq!(out, job * 2);
                    committed.borrow_mut().push(k);
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(*committed.borrow(), (0..17).collect::<Vec<_>>(), "depth {depth}");
        }
    }

    #[test]
    fn first_error_commits_exact_prefix_and_cancels_the_rest() {
        for depth in [1usize, 2, 4, 8] {
            let gate = IssueGate::new();
            let mut jobs = (0..12u64).collect::<Vec<_>>().into_iter();
            let committed = std::cell::RefCell::new(Vec::new());
            let err = run_windowed(
                depth,
                1,
                &gate,
                |_k| Ok(jobs.next()),
                |k, _job: &mut u64| {
                    let turn = gate.turn(k as u64)?;
                    if k == 5 {
                        // Failing inside the turn: drop cancels later slots.
                        drop(turn);
                        return Err(Error::State("job 5 exploded".into()));
                    }
                    turn.complete();
                    Ok(())
                },
                |k, _job, _out| {
                    committed.borrow_mut().push(k);
                    Ok(())
                },
            )
            .unwrap_err();
            assert!(err.to_string().contains("job 5 exploded"), "depth {depth}: {err}");
            assert_eq!(*committed.borrow(), vec![0, 1, 2, 3, 4], "depth {depth}");
        }
    }

    #[test]
    fn commit_error_stops_the_stream() {
        let gate = IssueGate::new();
        let mut jobs = (0..8u64).collect::<Vec<_>>().into_iter();
        let committed = std::cell::RefCell::new(0usize);
        let err = run_windowed(
            4,
            1,
            &gate,
            |_k| Ok(jobs.next()),
            |k, _job: &mut u64| {
                gate.turn(k as u64)?.complete();
                Ok(())
            },
            |k, _job, _out| {
                if k == 3 {
                    return Err(Error::State("commit 3 failed".into()));
                }
                *committed.borrow_mut() += 1;
                Ok(())
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("commit 3 failed"));
        assert_eq!(*committed.borrow(), 3);
    }

    #[test]
    fn source_error_reports_after_prior_jobs_commit() {
        let gate = IssueGate::new();
        let committed = std::cell::RefCell::new(Vec::new());
        let err = run_windowed(
            4,
            1,
            &gate,
            |k| {
                if k == 6 {
                    Err(Error::State("source died".into()))
                } else {
                    Ok(Some(k as u64))
                }
            },
            |k, _job: &mut u64| {
                gate.turn(k as u64)?.complete();
                Ok(())
            },
            |k, _job, _out| {
                committed.borrow_mut().push(k);
                Ok(())
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("source died"));
        assert_eq!(*committed.borrow(), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn cancelled_jobs_do_not_mask_the_real_error() {
        // Workers past the failure see Cancelled from the gate; the error
        // reported must be the real one at the lowest job index.
        let gate = IssueGate::new();
        let mut jobs = (0..10u64).collect::<Vec<_>>().into_iter();
        let err = run_windowed(
            8,
            1,
            &gate,
            |_k| Ok(jobs.next()),
            |k, _job: &mut u64| {
                let turn = gate.turn(k as u64)?;
                if k == 2 {
                    drop(turn);
                    return Err(Error::Platform(PlatformError::Injected("the real one".into())));
                }
                turn.complete();
                Ok(())
            },
            |_k, _job, _out| Ok(()),
        )
        .unwrap_err();
        assert!(err.to_string().contains("the real one"), "got: {err}");
    }

    /// Runs `f` on a helper thread, failing the test if it has not
    /// returned within 10 s instead of hanging the suite.
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
    fn a_panicking_source_job_or_commit_is_an_error_not_a_hang() {
        for depth in [1usize, 2, 4, 8] {
            for culprit in ["source", "job", "commit"] {
                let (committed, err) = within_timeout(move || {
                    let gate = IssueGate::new();
                    let mut committed = Vec::new();
                    let err = run_windowed(
                        depth,
                        1,
                        &gate,
                        |k| {
                            assert!(!(culprit == "source" && k == 2), "source 2 exploded");
                            Ok((k < 100).then_some(k))
                        },
                        |k, _job: &mut usize| {
                            // Before its turn, so later jobs queue behind it.
                            assert!(!(culprit == "job" && k == 2), "job 2 exploded");
                            gate.turn(k as u64)?.complete();
                            Ok(())
                        },
                        |k, _job, _out| {
                            assert!(!(culprit == "commit" && k == 2), "commit 2 exploded");
                            committed.push(k);
                            Ok(())
                        },
                    )
                    .unwrap_err();
                    (committed, err.to_string())
                });
                assert!(
                    err.contains(&format!("{culprit} 2 panicked: {culprit} 2 exploded")),
                    "depth {depth}: {err}"
                );
                assert_eq!(committed, vec![0, 1], "depth {depth}, {culprit}: committed prefix");
            }
        }
    }

    #[test]
    fn streamed_republish_keeps_the_stored_redundancy() {
        // Publish under redundancy 4, lose the platform, then stream the
        // same experiment asking for 2: the lost tasks must be
        // re-published with their stored redundancy (4), exactly like the
        // classic collect path.
        use crate::context::CrowdContext;
        use reprowd_platform::{CrowdPlatform, SimPlatform};
        use reprowd_storage::{Backend, MemoryStore};
        use std::sync::Arc;

        let db: Arc<dyn Backend> = Arc::new(MemoryStore::new());
        let presenter = crate::presenter::Presenter::image_label("Q?", &["Yes", "No"]);
        let obj = |i: usize| {
            val!({
                "url": format!("img{i}.jpg"),
                "_sim": {"kind": "label", "truth": 0, "labels": ["Yes", "No"], "difficulty": 0.0}
            })
        };
        let p1 = Arc::new(SimPlatform::quick(5, 1.0, 9));
        let cc1 = CrowdContext::new(Arc::clone(&p1) as Arc<dyn CrowdPlatform>, Arc::clone(&db))
            .unwrap();
        let _ = cc1
            .crowddata("lost")
            .unwrap()
            .data((0..3).map(obj).collect())
            .unwrap()
            .presenter(presenter.clone())
            .unwrap()
            .publish(4)
            .unwrap();
        // Fresh platform instance: the published tasks are gone.
        let p2 = Arc::new(SimPlatform::quick(5, 1.0, 10));
        let cc2 = CrowdContext::new(Arc::clone(&p2) as Arc<dyn CrowdPlatform>, db).unwrap();
        let spec = StreamSpec {
            experiment: "lost".into(),
            presenter,
            n_assignments: 2,
        };
        let mut run_counts = Vec::new();
        let report = run_stream(&cc2, &spec, (0..3).map(obj), |row| {
            run_counts.push(row.result.runs.len());
            Ok(())
        })
        .unwrap();
        assert_eq!(report.stats.tasks_republished, 3);
        assert_eq!(run_counts, vec![4, 4, 4], "republished tasks keep redundancy 4");
    }

    // ---------------------------------------------------- majority_answer

    #[test]
    fn majority_answer_matches_classic_semantics() {
        use reprowd_platform::types::TaskRun;
        let space = vec![val!("first"), val!("second")];
        let run = |worker: u64, answer: Value| TaskRun {
            task_id: 1,
            worker_id: worker,
            answer,
            assigned_at: 0,
            submitted_at: 1,
        };
        // Clear majority.
        let runs = vec![run(1, val!("second")), run(2, val!("second")), run(3, val!("first"))];
        assert_eq!(majority_answer(&runs, &space), val!("second"));
        // Tie breaks toward the earlier space entry.
        let runs = vec![run(1, val!("first")), run(2, val!("second"))];
        assert_eq!(majority_answer(&runs, &space), val!("first"));
        // Junk answers are dropped; all-junk means no vote.
        let runs = vec![run(1, val!("garbage"))];
        assert_eq!(majority_answer(&runs, &space), Value::Null);
        assert_eq!(majority_answer(&[], &space), Value::Null);
    }
}
