//! The pipelined execution engine, and the one chunk lifecycle both
//! execution paths run on it.
//!
//! * **A bounded-depth scheduler** (plain threads, one worker loop):
//!   [`ExecutionConfig::inflight_batches`](crate::exec::ExecutionConfig::inflight_batches)
//!   workers each claim a chunk job, run it, and commit it before claiming
//!   the next, so at most that many jobs are ever claimed but not yet
//!   committed. Depth 1 is the same loop on the calling thread — bit for
//!   bit the sequential engine.
//! * **Ordered effects** (the platform crate's [`IssueGate`]): every
//!   platform call a job makes is numbered with a *slot*, and the call's
//!   effect — id
//!   allocation, clock ticks, budget charges, API accounting — waits its
//!   turn. The platform therefore observes the **exact call sequence a
//!   sequential run issues, at every depth**; only the wire time overlaps.
//!   This is why columns, cache contents, and call counts are bit-identical
//!   across in-flight depths: determinism is proved by call-sequence
//!   equality, not argued per platform.
//! * **Ordered commits**: each worker waits for its job's commit turn and
//!   commits the job itself, so jobs reach the store strictly in job order.
//!   A failure at job `k` cancels the issue gate for everything after `k`
//!   (see [`IssueGate::close_from`](reprowd_platform::IssueGate::close_from)),
//!   commits exactly the jobs before `k`, and reports `k`'s error — the
//!   same store prefix and, for errors raised by the platform calls
//!   themselves, the same platform state a sequential run stopping at `k`
//!   leaves. (Client-side post-checks that fail *after* a call returned
//!   close the gate only as their job's work returns, so up to the
//!   in-flight window of later batches may already be on the platform —
//!   the same bounded exposure as the documented crash window.)
//!
//! On top of the scheduler sits the **chunk lifecycle**, the legs a row
//! goes through on its way to a result cell: cache read, bulk probe (a
//! task the platform lost is republished under its stored redundancy, and
//! so is every task when the recorded project is not this experiment's),
//! bulk publish, wait, bulk fetch, and one commit that writes a chunk's
//! task and result batches, meters them in
//! [`BatchMetrics`](crate::exec::BatchMetrics) and folds its
//! [`RunStats`]. A chunk that fails after publishing still commits its
//! task cells. The two execution paths are two schedules of these legs:
//!
//! * **Classic** ([`CrowdData::publish`](crate::CrowdData::publish) and
//!   [`collect`](crate::CrowdData::collect)), phase at a time: `publish`
//!   runs the publish leg over every chunk; `collect` runs the probe leg,
//!   then the republish, then one wait for every pending task, then the
//!   fetch leg — each leg a gated pass of its own, one slot per chunk.
//! * **Streamed** ([`run_stream`]), fused: each chunk runs every leg in one
//!   job, in one fixed slot order — probe → publish → wait → fetch, four
//!   slots per chunk. Candidates arrive as an **iterator**, so operators
//!   (sort, max, CrowdER join) generate candidate pairs lazily: generation
//!   interleaves with publishing, at most a window's worth of rows is
//!   resident, and a join over 10⁴ records never materializes an O(n²)
//!   pair vector.
//!
//! Each schedule is fixed per `(input, batch_size)`, so both are
//! bit-identical across depths — the in-flight depth is a pure performance
//! knob everywhere. Run fresh, the two are different experiments (the
//! streamed crowd works chunk by chunk); they share keys, cells and
//! accounting, so either one reruns the other for free.

use crate::context::CrowdContext;
use crate::crowddata::RunStats;
use crate::error::{Error, Result};
use crate::hash::RowKeyer;
use crate::presenter::Presenter;
use crate::store::{ExperimentStore, Manifest, StoredResult, StoredTask, TaskCell};
use crate::value::{canonical, Value};
use reprowd_platform::types::{TaskId, TaskSpec};
use reprowd_platform::IssueGate;
use reprowd_quality::{majority_vote_matrix, TiePolicy, VoteMatrix};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

// ---------------------------------------------------------------- driver

/// Runs jobs through the bounded-depth pipeline: `depth` copies of one
/// worker loop — claim job `k`, run it, wait for commit turn `k`, commit
/// it — the calling thread being one of them.
///
/// * `source(k)` produces job `k` (`None` = stream exhausted). Called in
///   ascending `k` under a lock, so stateful sources (iterators,
///   running hashes) see their pulls in order even though workers race to
///   claim.
/// * `work(k, &mut job)` performs the job's platform round-trips; its
///   gated calls must use slots `[k·slots_per_job, (k+1)·slots_per_job)`.
/// * `commit(k, job, out)` runs on the worker that ran job `k`, strictly
///   in ascending `k`, with the job's outcome; handed an error, it must
///   return one.
///
/// A worker commits its job before it claims another, so at most `depth`
/// jobs are ever claimed but not yet committed. On the first error (by
/// job order): jobs before it are committed, the gate is closed from that
/// job's slots, and that error is returned. A panic in `source`, `work`,
/// or `commit` is such an error, at every depth.
pub(crate) fn run_windowed<J, T>(
    depth: usize,
    slots_per_job: u64,
    gate: &IssueGate,
    source: impl FnMut(usize) -> Result<Option<J>> + Send,
    work: impl Fn(usize, &mut J) -> Result<T> + Sync,
    commit: impl FnMut(usize, J, Result<T>) -> Result<()> + Send,
) -> Result<()> {
    /// The commit turns: the job whose turn it is, the committer, and the
    /// first failure by job index (no job from it on commits).
    struct Turns<C> {
        next: usize,
        failed: Option<(usize, Error)>,
        commit: C,
    }
    // The next job to claim, and the source until it is exhausted or fails.
    let claims = Mutex::new((0usize, Some(source)));
    let turns = Mutex::new(Turns { next: 0, failed: None, commit });
    let turn_cv = Condvar::new();
    let fail = |t: &mut Turns<_>, k: usize, e: Error| {
        gate.close_from(k as u64 * slots_per_job);
        if t.failed.as_ref().is_none_or(|(f, _)| k < *f) {
            t.failed = Some((k, e));
        }
        turn_cv.notify_all();
    };
    let worker = || loop {
        let mut c = claims.lock().expect("pipeline claim lock");
        let (k, Some(source)) = (c.0, c.1.as_mut()) else { return };
        let mut job = match caught("source", k, || source(k)) {
            Ok(Some(job)) => job,
            end => {
                c.1 = None;
                drop(c);
                if let Err(e) = end {
                    fail(&mut turns.lock().expect("pipeline turn lock"), k, e);
                }
                return;
            }
        };
        c.0 += 1;
        drop(c);
        let out = caught("job", k, || work(k, &mut job));
        if out.is_err() {
            // Cancel every later job's calls now; this job still commits
            // what it did, in its turn.
            gate.close_from(k as u64 * slots_per_job);
        }
        let failed_by = |t: &Turns<_>| t.failed.as_ref().is_some_and(|(f, _)| *f <= k);
        let mut t = turn_cv
            .wait_while(turns.lock().expect("pipeline turn lock"), |t| t.next < k && !failed_by(t))
            .expect("pipeline turn wait");
        if failed_by(&t) {
            return;
        }
        if let Err(e) = caught("commit", k, || (t.commit)(k, job, out)) {
            fail(&mut t, k, e);
            return;
        }
        t.next += 1;
        turn_cv.notify_all();
    };
    std::thread::scope(|scope| {
        for _ in 1..depth {
            scope.spawn(worker);
        }
        worker();
    });
    match turns.into_inner().expect("pipeline turn lock").failed {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

/// Runs one pipeline callback, turning a panic into an error. Uncaught, a
/// panicking job never commits, so at depth > 1 the workers holding later
/// jobs wait for their commit turns forever instead of failing the run.
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

// ------------------------------------------------------- chunk lifecycle

/// Enforces the bulk-endpoint contract ("all-or-nothing, results in
/// request order"): a platform answering a bulk call with the wrong
/// cardinality would otherwise silently leave tail rows unpersisted.
fn check_bulk_len(op: &str, got: usize, requested: usize) -> Result<()> {
    if got != requested {
        return Err(Error::State(format!(
            "platform bulk contract violated: {op} returned {got} items for a \
             batch of {requested}"
        )));
    }
    Ok(())
}

/// One row moving through the chunk lifecycle.
#[derive(Default)]
pub(crate) struct Lane {
    /// Row index (classic) or stream position (streamed).
    pub(crate) index: usize,
    /// The row's cache key.
    pub(crate) key: String,
    pub(crate) object: Value,
    pub(crate) task: Option<TaskCell>,
    pub(crate) result: Option<StoredResult>,
    /// Workers to ask if this lane publishes: the run's redundancy, or a
    /// lost task's stored one.
    redundancy: u32,
    /// The platform lost this lane's task: publishing it is a republish.
    lost: bool,
    /// What the current job did; the commit turns it into store writes,
    /// metrics and accounting, then clears it.
    did: Did,
}

#[derive(Default)]
struct Did {
    /// The task cell counts as served from the store.
    task_cached: bool,
    /// The result cell was served from the store.
    result_cached: bool,
    probed: bool,
    published: bool,
    fetched: bool,
}

impl Lane {
    pub(crate) fn new(index: usize, key: String, object: Value, redundancy: u32) -> Self {
        Lane { index, key, object, redundancy, ..Lane::default() }
    }
}

/// Which cells the cache leg looks up.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Want {
    Tasks,
    Results,
    Both,
}

/// Positions and task ids of the lanes that hold a task but no result.
fn awaiting(lanes: &[Lane]) -> (Vec<usize>, Vec<TaskId>) {
    lanes
        .iter()
        .enumerate()
        .filter(|(_, lane)| lane.result.is_none())
        .filter_map(|(p, lane)| Some((p, lane.task.as_ref()?.id())))
        .unzip()
}

/// The legs of one run over one experiment, and what they share: the
/// context, the task UI, and the manifest whose platform project is
/// resolved once, by the first leg that publishes.
pub(crate) struct Lifecycle<'a> {
    cc: &'a CrowdContext,
    presenter: &'a Presenter,
    project: Mutex<(&'a mut Manifest, Option<u64>)>,
    /// The manifest's project is this experiment's on this platform, so
    /// the stored task ids name this experiment's tasks. Decided once, as
    /// the run starts.
    trusted: bool,
}

impl<'a> Lifecycle<'a> {
    /// Starts a run. The recorded project is trusted only if the platform
    /// knows it under this experiment's name: a restarted platform hands
    /// out ids from 1 again, so the id may now name another experiment's
    /// project, and the stored task ids that experiment's tasks.
    pub(crate) fn new(
        cc: &'a CrowdContext,
        presenter: &'a Presenter,
        manifest: &'a mut Manifest,
    ) -> Self {
        let trusted = manifest.project_id.is_some_and(|pid| {
            cc.platform().project(pid).is_ok_and(|project| {
                project.name.rsplit_once(':').map(|(experiment, _)| experiment)
                    == Some(manifest.name.as_str())
            })
        });
        Lifecycle { cc, presenter, project: Mutex::new((manifest, None)), trusted }
    }

    /// The experiment's platform project: the recorded one if it is
    /// trusted (a fresh platform instance may have lost it, or given its
    /// id to another experiment), else a new one, persisted into the
    /// manifest. Resolved once per run.
    fn project_id(&self) -> Result<u64> {
        let mut slot = self.project.lock().expect("project lock poisoned by a panicking leg");
        let (manifest, resolved) = &mut *slot;
        if let Some(pid) = *resolved {
            return Ok(pid);
        }
        let pid = match manifest.project_id {
            Some(pid) if self.trusted => pid,
            _ => {
                let pid = self
                    .cc
                    .platform()
                    .create_project(&format!("{}:{}", manifest.name, self.presenter.name))?;
                manifest.project_id = Some(pid);
                self.cc.store().manifests.put(manifest.name.as_bytes(), &**manifest)?;
                pid
            }
        };
        *resolved = Some(pid);
        Ok(pid)
    }

    /// Cache leg: serves the wanted cells each lane still lacks from the
    /// store. A cached result serves the whole row, so when tasks are
    /// wanted too its task counts as reused without being read. A task
    /// cell is kept as its bytes, with only its header decoded.
    fn read_cache(&self, lanes: &mut [Lane], want: Want) -> Result<()> {
        let store = self.cc.store();
        for lane in lanes {
            let key = lane.key.as_bytes();
            if want != Want::Tasks && lane.result.is_none() {
                if let Some(result) = store.results.get(key)? {
                    lane.result = Some(result);
                    lane.did.result_cached = true;
                    lane.did.task_cached = want == Want::Both;
                    continue;
                }
            }
            if want != Want::Results && lane.task.is_none() {
                if let Some(bytes) = store.tasks.get_bytes(key)? {
                    lane.task = Some(TaskCell::from_bytes(bytes)?);
                    lane.did.task_cached = true;
                }
            }
        }
        Ok(())
    }

    /// Probe leg: one bulk completion probe over the lanes awaiting a
    /// result. A task the platform no longer knows (the platform restarted,
    /// distinct from a client crash) is dropped, to be republished under
    /// the redundancy its cell was created with. So is every task when the
    /// recorded project is not trusted: the probe still goes out, in its
    /// slot, but its answers may be about another experiment's tasks.
    fn probe(&self, lanes: &mut [Lane], gate: &IssueGate, slot: u64) -> Result<()> {
        let (at, ids) = awaiting(lanes);
        let statuses = self.cc.platform().are_complete_pipelined(&ids, gate, slot)?;
        check_bulk_len("are_complete", statuses.len(), ids.len())?;
        for (&p, status) in at.iter().zip(statuses) {
            let lane = &mut lanes[p];
            lane.did.probed = true;
            if status.is_none() || !self.trusted {
                lane.redundancy =
                    lane.task.take().expect("awaiting lane has a task").n_assignments();
                lane.lost = true;
            }
        }
        Ok(())
    }

    /// Publish leg: one bulk publish of the lanes with neither a task nor
    /// a result, each under its lane's redundancy. A chunk with nothing to
    /// publish still takes its slot, with an empty (free) request and
    /// without resolving the project. Each new task cell is encoded here,
    /// on the worker, and the platform's task tree dropped.
    fn publish(&self, lanes: &mut [Lane], gate: &IssueGate, slot: u64) -> Result<()> {
        let at: Vec<usize> = (0..lanes.len())
            .filter(|&p| lanes[p].task.is_none() && lanes[p].result.is_none())
            .collect();
        let pid = if at.is_empty() { 0 } else { self.project_id()? };
        let specs: Vec<TaskSpec> = at
            .iter()
            .map(|&p| TaskSpec {
                payload: self.presenter.render(&lanes[p].object),
                n_assignments: lanes[p].redundancy,
            })
            .collect();
        let tasks = self.cc.platform().publish_tasks_pipelined(pid, specs, gate, slot)?;
        check_bulk_len("publish_tasks", tasks.len(), at.len())?;
        for (&p, task) in at.iter().zip(tasks) {
            let lane = &mut lanes[p];
            let object = std::mem::take(&mut lane.object);
            let cell = StoredTask { task, object, n_assignments: lane.redundancy };
            lane.task = Some(TaskCell::encode(&cell));
            lane.object = cell.object;
            lane.did.published = true;
        }
        Ok(())
    }

    /// Wait leg: drives the platform until every lane awaiting a result has
    /// a complete task — in its slot when `turn` is given (streamed), as
    /// one plain call otherwise (classic, between its passes).
    fn wait(&self, lanes: &[Lane], turn: Option<(&IssueGate, u64)>) -> Result<()> {
        let (_, ids) = awaiting(lanes);
        let platform = self.cc.platform();
        match turn {
            Some((gate, slot)) => platform.run_until_complete_pipelined(&ids, gate, slot)?,
            None => platform.run_until_complete(&ids)?,
        }
        Ok(())
    }

    /// Fetch leg: one bulk fetch of the runs of the lanes awaiting a result.
    fn fetch(&self, lanes: &mut [Lane], gate: &IssueGate, slot: u64) -> Result<()> {
        let (at, ids) = awaiting(lanes);
        let runs_per_task = self.cc.platform().fetch_runs_bulk_pipelined(&ids, gate, slot)?;
        check_bulk_len("fetch_runs_bulk", runs_per_task.len(), ids.len())?;
        for (&p, runs) in at.iter().zip(runs_per_task) {
            lanes[p].result = Some(StoredResult { runs });
            lanes[p].did.fetched = true;
        }
        Ok(())
    }

    /// Commit leg: writes the new task cells, then the new result cells
    /// (one atomic batch each), meters the round-trips that produced them
    /// and folds what happened to each lane into `stats`.
    fn commit(&self, lanes: &mut [Lane], stats: &mut RunStats) -> Result<()> {
        let metrics = self.cc.metrics();
        let probed = lanes.iter().filter(|lane| lane.did.probed).count() as u64;
        if probed > 0 {
            metrics.record_probe(probed);
        }
        // The publish leg encoded the new task cells, on its worker, so
        // the commit turn writes bytes it already has. Encoding them here
        // instead cut a fresh 2·10⁴-row run on disk by about 10% on a
        // 2-core host (39–47k against 43–50k rows/s, 5 alternating pairs);
        // in the leg it measured neutral (43.6/47.8/48.4k against
        // 46.8/44.9/43.6k rows/s).
        let tasks: Vec<(&[u8], &[u8])> = lanes
            .iter()
            .filter(|lane| lane.did.published)
            .filter_map(|lane| Some((lane.key.as_bytes(), lane.task.as_ref()?.bytes())))
            .collect();
        if !tasks.is_empty() {
            metrics.record_publish(tasks.len() as u64);
            self.cc.store().tasks.put_many_bytes(tasks)?;
        }
        let results: Vec<(&[u8], &StoredResult)> = lanes
            .iter()
            .filter(|lane| lane.did.fetched)
            .filter_map(|lane| Some((lane.key.as_bytes(), lane.result.as_ref()?)))
            .collect();
        if !results.is_empty() {
            metrics.record_fetch(results.len() as u64);
            self.cc.store().results.put_many(results)?;
        }
        for lane in lanes.iter_mut() {
            let did = std::mem::take(&mut lane.did);
            stats.merge(RunStats {
                tasks_published: u64::from(did.published && !lane.lost),
                tasks_reused: u64::from(did.task_cached),
                results_collected: u64::from(did.fetched),
                results_reused: u64::from(did.result_cached),
                tasks_republished: u64::from(did.published && lane.lost),
            });
        }
        Ok(())
    }

    /// Runs `lanes` through the pipeline in chunks of the context's batch
    /// size: `legs(chunk, gate, base)` is a chunk's job, on a worker thread,
    /// with slots `base..base + slots`; each finished chunk is committed in
    /// order, on its worker, and its lanes handed to `sink`.
    ///
    /// A chunk whose legs fail right after the committed prefix still
    /// commits what its earlier legs did: a streamed chunk that dies in its
    /// wait or fetch keeps the task cells of the tasks it published, so the
    /// rerun reuses them instead of publishing them twice. (Its later
    /// slots, and every later chunk's, were cancelled by the gate.)
    fn run(
        &self,
        lanes: impl Iterator<Item = Lane> + Send,
        slots: u64,
        legs: impl Fn(&mut [Lane], &IssueGate, u64) -> Result<()> + Sync,
        mut sink: impl FnMut(Lane) -> Result<()> + Send,
    ) -> Result<StreamReport> {
        let batch_size = self.cc.config().batch_size;
        let gate = IssueGate::new();
        let inflight = AtomicUsize::new(0);
        let mut peak = 0;
        let mut report = StreamReport::default();
        let mut lanes = lanes;
        run_windowed(
            self.cc.config().inflight_batches,
            slots,
            &gate,
            |_k| {
                let chunk: Vec<Lane> = lanes.by_ref().take(batch_size).collect();
                if chunk.is_empty() {
                    return Ok(None);
                }
                peak = peak.max(inflight.fetch_add(chunk.len(), Ordering::Relaxed) + chunk.len());
                Ok(Some(chunk))
            },
            |k, chunk: &mut Vec<Lane>| legs(chunk, &gate, k as u64 * slots),
            |_k, mut chunk, done| {
                if let Err(e) = done {
                    // Best effort: the legs' error is the one to report.
                    let _ = self.commit(&mut chunk, &mut RunStats::default());
                    return Err(e);
                }
                self.commit(&mut chunk, &mut report.stats)?;
                inflight.fetch_sub(chunk.len(), Ordering::Relaxed);
                report.chunks += 1;
                for lane in chunk {
                    report.rows += 1;
                    sink(lane)?;
                }
                Ok(())
            },
        )?;
        report.peak_inflight_rows = peak;
        Ok(report)
    }

    /// One classic phase: `leg` over every chunk of `lanes`, one slot per
    /// chunk. Returns the lanes in input order.
    fn pass(
        &self,
        lanes: Vec<Lane>,
        leg: fn(&Self, &mut [Lane], &IssueGate, u64) -> Result<()>,
        stats: &mut RunStats,
    ) -> Result<Vec<Lane>> {
        let mut out = Vec::with_capacity(lanes.len());
        let report = self.run(
            lanes.into_iter(),
            1,
            |chunk, gate, slot| leg(self, chunk, gate, slot),
            |lane| {
                out.push(lane);
                Ok(())
            },
        )?;
        stats.merge(report.stats);
        Ok(out)
    }

    /// The classic publish schedule: a cache pass over `lanes`, then the
    /// publish leg over the misses. Returns every lane, with its task.
    pub(crate) fn classic_publish(
        &self,
        mut lanes: Vec<Lane>,
        stats: &mut RunStats,
    ) -> Result<Vec<Lane>> {
        self.read_cache(&mut lanes, Want::Tasks)?;
        let (mut done, misses): (Vec<Lane>, Vec<Lane>) =
            lanes.into_iter().partition(|lane| lane.task.is_some());
        self.commit(&mut done, stats)?;
        if misses.is_empty() {
            // Fully cached: zero platform traffic, the sharable guarantee.
            return Ok(done);
        }
        // Every chunk of this pass publishes: resolve the project before
        // any of them, as a sequential run does.
        self.project_id()?;
        done.extend(self.pass(misses, Self::publish, stats)?);
        Ok(done)
    }

    /// The classic collect schedule: a cache pass over `lanes`, then the
    /// probe leg, the republish of lost tasks, one wait for every pending
    /// task, and the fetch leg. Returns every lane, with its result.
    pub(crate) fn classic_collect(
        &self,
        mut lanes: Vec<Lane>,
        stats: &mut RunStats,
    ) -> Result<Vec<Lane>> {
        self.read_cache(&mut lanes, Want::Results)?;
        if let Some(lane) = lanes.iter().find(|lane| lane.result.is_none() && lane.task.is_none()) {
            return Err(Error::State(format!(
                "collect before publish: row {} has no task",
                lane.index
            )));
        }
        let (mut done, unfinished): (Vec<Lane>, Vec<Lane>) =
            lanes.into_iter().partition(|lane| lane.result.is_some());
        self.commit(&mut done, stats)?;
        // Republished tasks queue behind the ones the platform still had:
        // that order fixes the wait and the fetch chunks.
        let (lost, mut pending): (Vec<Lane>, Vec<Lane>) =
            self.pass(unfinished, Self::probe, stats)?.into_iter().partition(|lane| lane.lost);
        if !lost.is_empty() {
            self.project_id()?;
            pending.extend(self.pass(lost, Self::publish, stats)?);
        }
        if !pending.is_empty() {
            self.wait(&pending, None)?;
            done.extend(self.pass(pending, Self::fetch, stats)?);
        }
        Ok(done)
    }
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
    /// at most `batch_size × inflight_batches`, never the candidate count.
    pub peak_inflight_rows: usize,
}

/// Streams `candidates` through the full publish→wait→fetch lifecycle and
/// hands each collected row to `sink`, in input order. The sink runs on
/// the pipeline worker that committed the row's chunk, one chunk at a
/// time.
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
    mut sink: impl FnMut(StreamedRow) -> Result<()> + Send,
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

    // Keyed like the classic `data(...)` step, so streamed and classic
    // runs share the cache.
    let (name, fp, n_assignments) = (&spec.experiment, &fp, spec.n_assignments);
    let mut keyer = RowKeyer::default();
    let lanes = candidates.enumerate().map(move |(index, object)| {
        let key = ExperimentStore::row_key(name, fp, &keyer.key(&object));
        Lane::new(index, key, object, n_assignments)
    });
    let lifecycle = Lifecycle::new(cc, &spec.presenter, &mut manifest);
    lifecycle.run(
        lanes,
        4,
        |chunk, gate, base| {
            lifecycle.read_cache(chunk, Want::Both)?;
            lifecycle.probe(chunk, gate, base)?;
            lifecycle.publish(chunk, gate, base + 1)?;
            lifecycle.wait(chunk, Some((gate, base + 2)))?;
            lifecycle.fetch(chunk, gate, base + 3)
        },
        |lane| {
            let result = lane.result.ok_or_else(|| {
                Error::State(format!("streamed row {} finished without a result", lane.index))
            })?;
            sink(StreamedRow { index: lane.index, object: lane.object, result })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::val;
    use reprowd_platform::Error as PlatformError;
    use std::sync::mpsc;

    // ------------------------------------------------------- run_windowed

    /// A seeded per-job delay. Taken before and after a job's gate turn,
    /// it makes jobs reach the gate and finish out of order at depth > 1,
    /// so finished jobs wait for their commit turns.
    fn jitter(k: usize) {
        std::thread::sleep(std::time::Duration::from_millis((k * 7 % 5) as u64));
    }

    #[test]
    fn commits_in_order_at_every_depth() {
        for depth in [1usize, 2, 4, 8] {
            let gate = IssueGate::new();
            let mut jobs = (0..17u64).collect::<Vec<_>>().into_iter();
            let mut committed = Vec::new();
            run_windowed(
                depth,
                1,
                &gate,
                |_k| Ok(jobs.next()),
                |k, job: &mut u64| {
                    jitter(k);
                    // Effects in slot order even though workers race.
                    let turn = gate.turn(k as u64)?;
                    turn.complete();
                    jitter(k + 1);
                    Ok(*job * 2)
                },
                |k, job, out| {
                    assert_eq!(out?, job * 2);
                    committed.push(k);
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(committed, (0..17).collect::<Vec<_>>(), "depth {depth}");
        }
    }

    #[test]
    fn first_error_commits_exact_prefix_and_cancels_the_rest() {
        for depth in [1usize, 2, 4, 8] {
            let gate = IssueGate::new();
            let mut jobs = (0..12u64).collect::<Vec<_>>().into_iter();
            let mut committed = Vec::new();
            let err = run_windowed(
                depth,
                1,
                &gate,
                |_k| Ok(jobs.next()),
                |k, _job: &mut u64| {
                    jitter(k);
                    let turn = gate.turn(k as u64)?;
                    if k == 5 {
                        // Failing inside the turn: drop cancels later slots.
                        drop(turn);
                        return Err(Error::State("job 5 exploded".into()));
                    }
                    turn.complete();
                    jitter(k + 1);
                    Ok(())
                },
                |k, _job, out| {
                    out?;
                    committed.push(k);
                    Ok(())
                },
            )
            .unwrap_err();
            assert!(err.to_string().contains("job 5 exploded"), "depth {depth}: {err}");
            assert_eq!(committed, vec![0, 1, 2, 3, 4], "depth {depth}");
        }
    }

    #[test]
    fn commit_error_stops_the_stream() {
        let gate = IssueGate::new();
        let mut jobs = (0..8u64).collect::<Vec<_>>().into_iter();
        let mut committed = 0usize;
        let err = run_windowed(
            4,
            1,
            &gate,
            |_k| Ok(jobs.next()),
            |k, _job: &mut u64| {
                gate.turn(k as u64)?.complete();
                Ok(())
            },
            |k, _job, out| {
                out?;
                if k == 3 {
                    return Err(Error::State("commit 3 failed".into()));
                }
                committed += 1;
                Ok(())
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("commit 3 failed"));
        assert_eq!(committed, 3);
    }

    #[test]
    fn source_error_reports_after_prior_jobs_commit() {
        let gate = IssueGate::new();
        let mut committed = Vec::new();
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
            |k, _job, out| {
                out?;
                committed.push(k);
                Ok(())
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("source died"));
        assert_eq!(committed, (0..6).collect::<Vec<_>>());
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
            |_k, _job, out| out,
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
                        |k, _job, out| {
                            out?;
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
        // Publish under redundancy 4, lose the platform, then rerun the
        // same experiment asking for 2 — streamed, or through the classic
        // publish/collect chain: the lost tasks must be re-published with
        // their stored redundancy (4) by both schedules.
        use crate::context::CrowdContext;
        use reprowd_platform::{CrowdPlatform, SimPlatform};
        use reprowd_storage::{Backend, MemoryStore};
        use std::sync::Arc;

        let presenter = crate::presenter::Presenter::image_label("Q?", &["Yes", "No"]);
        let obj = |i: usize| {
            val!({
                "url": format!("img{i}.jpg"),
                "_sim": {"kind": "label", "truth": 0, "labels": ["Yes", "No"], "difficulty": 0.0}
            })
        };
        for streamed in [true, false] {
            let db: Arc<dyn Backend> = Arc::new(MemoryStore::new());
            let p1 = Arc::new(SimPlatform::quick(5, 1.0, 9));
            let cc1 =
                CrowdContext::new(Arc::clone(&p1) as Arc<dyn CrowdPlatform>, Arc::clone(&db))
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
            let (stats, run_counts) = if streamed {
                let spec = StreamSpec {
                    experiment: "lost".into(),
                    presenter: presenter.clone(),
                    n_assignments: 2,
                };
                let mut run_counts = Vec::new();
                let report = run_stream(&cc2, &spec, (0..3).map(obj), |row| {
                    run_counts.push(row.result.runs.len());
                    Ok(())
                })
                .unwrap();
                (report.stats, run_counts)
            } else {
                let cd = cc2
                    .crowddata("lost")
                    .unwrap()
                    .data((0..3).map(obj).collect())
                    .unwrap()
                    .presenter(presenter.clone())
                    .unwrap()
                    .publish(2)
                    .unwrap()
                    .collect()
                    .unwrap();
                let run_counts =
                    cd.rows().iter().map(|r| r.result.as_ref().unwrap().runs.len()).collect();
                (cd.run_stats(), run_counts)
            };
            assert_eq!(stats.tasks_republished, 3, "streamed={streamed}");
            assert_eq!(run_counts, vec![4, 4, 4], "streamed={streamed}: redundancy 4 is kept");
        }
    }

    #[test]
    fn stream_residency_is_bounded_by_the_inflight_window() {
        // A worker commits its chunk before it claims another, so no more
        // than `depth` chunks are ever claimed but not yet committed.
        let spec = StreamSpec {
            experiment: "resident".into(),
            presenter: crate::presenter::Presenter::image_label("Q?", &["Yes", "No"]),
            n_assignments: 1,
        };
        let batch_size = 5;
        for depth in [1usize, 2, 4, 8] {
            let cc = CrowdContext::in_memory_sim(3)
                .with_batch_size(batch_size)
                .and_then(|cc| cc.with_inflight_batches(depth))
                .unwrap();
            let candidates = (0..43 * batch_size).map(|i| Value::from(format!("obj{i}")));
            let report = run_stream(&cc, &spec, candidates, |_| Ok(())).unwrap();
            assert_eq!(report.chunks, 43, "depth {depth}");
            assert!(
                report.peak_inflight_rows <= batch_size * depth,
                "depth {depth}: {} rows resident, window {}",
                report.peak_inflight_rows,
                batch_size * depth
            );
        }
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
