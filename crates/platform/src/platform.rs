//! The [`CrowdPlatform`] trait — what Reprowd's client library codes against.
//!
//! Mirrors the subset of the PyBossa API the original system uses:
//! create a project, publish tasks into it, poll for completion, fetch task
//! runs. Three additions serve the reproduction:
//!
//! * **API-call accounting** ([`CrowdPlatform::api_calls`]) — the paper's
//!   sharable property is "rerunning Bob's code issues no new crowd work",
//!   which the experiments verify by counting calls.
//! * **Explicit progress** ([`CrowdPlatform::step`]) — a simulated crowd
//!   produces answers only when the event loop advances; a real platform
//!   would return `false` ("nothing to do locally") and rely on wall-clock
//!   polling.
//! * **Bulk-first operations** ([`CrowdPlatform::publish_tasks`],
//!   [`CrowdPlatform::fetch_runs_bulk`],
//!   [`CrowdPlatform::are_complete`]) — the batched pipeline publishes,
//!   probes, and fetches in chunks, so end-to-end cost stops scaling
//!   linearly in round-trips. The bulk methods are the required ones and
//!   count one API call per publish/fetch request, matching how real bulk
//!   endpoints bill (status probes stay free). There is no sequential
//!   fallback: the per-row `publish_task`, `fetch_runs` and `is_complete`
//!   are defaults that make a bulk request of one, so every platform
//!   implements each effect exactly once. The completion wait
//!   ([`CrowdPlatform::run_until_complete`]) is required too: the
//!   simulator owns the one drain loop and wrappers forward to it.

use crate::error::{Error, Result};
use crate::gate::IssueGate;
use crate::types::{Project, ProjectId, SimTime, Task, TaskId, TaskRun, TaskSpec};

/// The only item of a bulk response to a request of one, or
/// [`Error::BadResponse`] if the endpoint `op` answered with any other
/// number of items. The per-row trait defaults are built on it.
fn one<T>(op: &str, mut items: Vec<T>) -> Result<T> {
    match items.len() {
        1 => Ok(items.remove(0)),
        n => Err(Error::BadResponse(format!("{op} returned {n} items for a request of 1"))),
    }
}

/// A crowdsourcing platform: projects, tasks, task runs.
///
/// All methods take `&self`; implementations are internally synchronized so
/// a `CrowdContext` can be shared across operator pipelines.
///
/// # Thread safety and the pipelined contract
///
/// The pipelined execution engine invokes the `*_pipelined` bulk variants
/// from several threads at once, so implementations must tolerate
/// concurrent bulk calls (every in-tree platform serializes internally).
/// Determinism does **not** rest on implementations being
/// order-insensitive: each pipelined variant's default runs the whole
/// call as its *effect* through [`IssueGate::run`], so whatever
/// a platform does — allocate ids, tick clocks, charge budgets — happens in
/// the caller's slot order, and a pipelined run issues the platform the
/// **exact call sequence a sequential run issues**, at every depth.
/// Platforms whose calls are dominated by wire latency (see
/// [`LatencyPlatform`](crate::latency::LatencyPlatform)) override the
/// variants to keep only the effect inside the turn and wait out the wire
/// time outside it — that is where overlapping depth turns into wall-clock
/// speedup.
pub trait CrowdPlatform: Send + Sync {
    /// Implementation name (for manifests/logs).
    fn name(&self) -> &str;

    /// Creates a project and returns its id. Counts as one API call.
    fn create_project(&self, name: &str) -> Result<ProjectId>;

    /// Looks up a project.
    fn project(&self, id: ProjectId) -> Result<Project>;

    /// Publishes one task: a [`publish_tasks`](CrowdPlatform::publish_tasks)
    /// request of one, so it counts as one API call. Errors if the bulk
    /// endpoint does not answer with exactly one task.
    fn publish_task(&self, project: ProjectId, spec: TaskSpec) -> Result<Task> {
        one("publish_tasks", self.publish_tasks(project, vec![spec])?)
    }

    /// Publishes many tasks in one request: **one** API call, atomic.
    /// Either every spec is accepted (tasks returned in spec order, ids
    /// ascending) or none is. Publishing an empty batch is free and issues
    /// no API call. There is no sequential fallback: this is the one
    /// publish every platform implements.
    ///
    /// Task ids, payloads, and timestamps are identical whether the same
    /// specs go out in one batch or in many; only the API-call count
    /// differs. The batched client pipeline relies on this to keep
    /// collected results bit-identical across batch sizes.
    fn publish_tasks(&self, project: ProjectId, specs: Vec<TaskSpec>) -> Result<Vec<Task>>;

    /// Fetches a task's current state. Counts as one API call.
    fn task(&self, id: TaskId) -> Result<Task>;

    /// Fetches all runs collected for a task so far: a
    /// [`fetch_runs_bulk`](CrowdPlatform::fetch_runs_bulk) request of one,
    /// so it counts as one API call. Errors if the bulk endpoint does not
    /// answer with exactly one run list.
    fn fetch_runs(&self, task: TaskId) -> Result<Vec<TaskRun>> {
        one("fetch_runs_bulk", self.fetch_runs_bulk(&[task])?)
    }

    /// Fetches the runs of many tasks in one request, in input order:
    /// **one** API call served from a single consistent snapshot. If any
    /// listed task is unknown the whole call fails with
    /// [`Error::UnknownTask`] and nothing is returned. Fetching an empty
    /// batch is free and issues no API call.
    fn fetch_runs_bulk(&self, tasks: &[TaskId]) -> Result<Vec<Vec<TaskRun>>>;

    /// True if the task has met its redundancy target: an
    /// [`are_complete`](CrowdPlatform::are_complete) request of one, with
    /// an unknown task mapped to [`Error::UnknownTask`].
    ///
    /// **Status probes are free**: neither `is_complete` nor
    /// `are_complete` counts toward
    /// [`api_calls`](CrowdPlatform::api_calls) on any in-process platform
    /// ([`FailingPlatform`](crate::FailingPlatform) does not charge its
    /// budget for them either). `api_calls` measures the paper's sharable
    /// property — *crowd work requested* — and a poll requests none. A
    /// real remote adapter still pays wall-clock round-trips to poll, which
    /// is why the batched pipeline probes per batch and meters those
    /// round-trips in its own client-side ledger
    /// (`CrowdContext::batch_metrics`), never here. Pinned by the
    /// `status_probes_are_free_on_every_platform` test.
    fn is_complete(&self, task: TaskId) -> Result<bool> {
        one("are_complete", self.are_complete(&[task])?)?.ok_or(Error::UnknownTask(task))
    }

    /// Reports completion for many tasks in one request, in input order:
    /// `Some(true)` complete, `Some(false)` still open, `None` unknown to
    /// the platform (e.g. the platform restarted and lost it — callers
    /// use this to decide what to republish). Free, like every status
    /// probe; a real remote adapter would serve it as **one** round-trip,
    /// which is why the batched pipeline probes completion in bulk.
    fn are_complete(&self, tasks: &[TaskId]) -> Result<Vec<Option<bool>>>;

    /// Makes internal progress (simulated crowd work). Returns `false` when
    /// there is nothing further to process. Not an API call.
    fn step(&self) -> Result<bool>;

    /// Drives [`step`](CrowdPlatform::step) until every listed task is
    /// complete. Errors with [`Error::Starved`] if the platform goes
    /// quiescent with listed tasks still open, and with
    /// [`Error::UnknownTask`] if a listed task does not exist.
    ///
    /// Required, with no default: the one drain-then-check driver lives in
    /// [`SimPlatform`], which probes once, drains its event loop to
    /// quiescence under one lock acquisition, and probes again. Draining
    /// may progress *unlisted* open tasks past the point where the listed
    /// ones complete; this never changes already-completed tasks (their
    /// runs are immutable), only how far still-open ones have advanced
    /// when the call returns. Wrappers forward the wait to the platform
    /// they wrap.
    ///
    /// [`SimPlatform`]: crate::SimPlatform
    fn run_until_complete(&self, tasks: &[TaskId]) -> Result<()>;

    /// Pipelined bulk publish: [`publish_tasks`](CrowdPlatform::publish_tasks)
    /// whose *effect* (id allocation, registration, accounting) is
    /// serialized into `order`'s slot sequence, so several batches can be
    /// on the wire at once while the platform still observes them in batch
    /// order — the property the pipelined engine's bit-for-bit determinism
    /// rests on.
    ///
    /// The default runs the entire call in the turn (correct for any
    /// platform, no overlap). Latency-bound platforms override it to wait
    /// out the wire time outside the turn. A failed call drops its turn,
    /// which cancels every later slot — a pipelined failure leaves exactly
    /// the platform state of a sequential run stopping at the same batch.
    fn publish_tasks_pipelined(
        &self,
        project: ProjectId,
        specs: Vec<TaskSpec>,
        order: &IssueGate,
        slot: u64,
    ) -> Result<Vec<Task>> {
        order.run(slot, || self.publish_tasks(project, specs))
    }

    /// Pipelined bulk fetch: [`fetch_runs_bulk`](CrowdPlatform::fetch_runs_bulk)
    /// with its effect (API-call/budget accounting, snapshot) in slot
    /// order. See [`publish_tasks_pipelined`](CrowdPlatform::publish_tasks_pipelined)
    /// for the contract.
    fn fetch_runs_bulk_pipelined(
        &self,
        tasks: &[TaskId],
        order: &IssueGate,
        slot: u64,
    ) -> Result<Vec<Vec<TaskRun>>> {
        order.run(slot, || self.fetch_runs_bulk(tasks))
    }

    /// Pipelined bulk status probe: [`are_complete`](CrowdPlatform::are_complete)
    /// in slot order. Free like every status probe.
    fn are_complete_pipelined(
        &self,
        tasks: &[TaskId],
        order: &IssueGate,
        slot: u64,
    ) -> Result<Vec<Option<bool>>> {
        order.run(slot, || self.are_complete(tasks))
    }

    /// Pipelined completion wait:
    /// [`run_until_complete`](CrowdPlatform::run_until_complete) in slot
    /// order. On a simulated platform the wait *drives* the crowd (a
    /// mutation), so streaming execution orders it like any other effect;
    /// on a remote platform it is a poll loop whose wire time an override
    /// can serve outside the turn.
    fn run_until_complete_pipelined(
        &self,
        tasks: &[TaskId],
        order: &IssueGate,
        slot: u64,
    ) -> Result<()> {
        order.run(slot, || self.run_until_complete(tasks))
    }

    /// Number of API calls served so far (project creation, publishes,
    /// task/run fetches). The reproducibility experiments' core metric.
    fn api_calls(&self) -> u64;

    /// Current platform clock (simulated milliseconds).
    fn now(&self) -> SimTime;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FailingPlatform, LatencyPlatform, SimPlatform};
    use std::sync::Arc;
    use std::time::Duration;

    fn specs(n: usize) -> Vec<TaskSpec> {
        (0..n)
            .map(|i| TaskSpec { payload: serde_json::json!({ "i": i }), n_assignments: 1 })
            .collect()
    }

    fn sim() -> SimPlatform {
        SimPlatform::quick(3, 0.9, 1)
    }

    /// Every in-tree stack under one signature, fresh and seeded alike
    /// each call: the simulator bare, behind the fault-injection wrapper,
    /// and behind the latency wrapper at zero round-trip time.
    fn platforms() -> [Box<dyn CrowdPlatform>; 3] {
        [
            Box::new(sim()),
            Box::new(FailingPlatform::new(Arc::new(sim()), u64::MAX)),
            Box::new(LatencyPlatform::new(Arc::new(sim()), Duration::ZERO)),
        ]
    }

    #[test]
    fn per_row_calls_are_bulk_calls_of_one() {
        // The same specs one row at a time and in bulk requests of one:
        // identical tasks, runs and probes, one API call per request.
        for (rows, bulk) in platforms().into_iter().zip(platforms()) {
            let name = rows.name().to_string();
            let (pr, pb) = (rows.create_project("t").unwrap(), bulk.create_project("t").unwrap());
            let mut tr = Vec::new();
            let mut tb = Vec::new();
            for spec in specs(3) {
                tr.push(rows.publish_task(pr, spec.clone()).unwrap());
                tb.extend(bulk.publish_tasks(pb, vec![spec]).unwrap());
            }
            assert_eq!(tr, tb, "{name}");
            let ids: Vec<TaskId> = tr.iter().map(|t| t.id).collect();
            for &id in &ids {
                assert_eq!(rows.is_complete(id), Ok(false), "{name}");
                assert_eq!(bulk.are_complete(&[id]).unwrap(), vec![Some(false)], "{name}");
            }
            rows.run_until_complete(&ids).unwrap();
            bulk.run_until_complete(&ids).unwrap();
            for &id in &ids {
                assert_eq!(rows.is_complete(id), Ok(true), "{name}");
                let runs = rows.fetch_runs(id).unwrap();
                assert_eq!(vec![runs], bulk.fetch_runs_bulk(&[id]).unwrap(), "{name}");
            }
            // create (1) + 3 publishes + 3 fetches.
            assert_eq!(rows.api_calls(), 7, "{name}");
            assert_eq!(bulk.api_calls(), 7, "{name}");
            assert_eq!(rows.is_complete(999), Err(Error::UnknownTask(999)), "{name}");
            assert_eq!(rows.fetch_runs(999), Err(Error::UnknownTask(999)), "{name}");
        }
    }

    /// A broken platform whose bulk endpoints answer every request with
    /// `n` items: copies of the first item the simulator returns.
    struct WrongCount(SimPlatform, usize);

    impl WrongCount {
        fn repeat<T: Clone>(&self, out: Vec<T>) -> Vec<T> {
            out.into_iter().take(1).cycle().take(self.1).collect()
        }
    }

    impl CrowdPlatform for WrongCount {
        fn name(&self) -> &str {
            "wrong-count"
        }
        fn create_project(&self, name: &str) -> Result<ProjectId> {
            self.0.create_project(name)
        }
        fn project(&self, id: ProjectId) -> Result<Project> {
            self.0.project(id)
        }
        fn publish_tasks(&self, project: ProjectId, specs: Vec<TaskSpec>) -> Result<Vec<Task>> {
            Ok(self.repeat(self.0.publish_tasks(project, specs)?))
        }
        fn task(&self, id: TaskId) -> Result<Task> {
            self.0.task(id)
        }
        fn fetch_runs_bulk(&self, tasks: &[TaskId]) -> Result<Vec<Vec<TaskRun>>> {
            Ok(self.repeat(self.0.fetch_runs_bulk(tasks)?))
        }
        fn are_complete(&self, tasks: &[TaskId]) -> Result<Vec<Option<bool>>> {
            Ok(self.repeat(self.0.are_complete(tasks)?))
        }
        fn step(&self) -> Result<bool> {
            self.0.step()
        }
        fn run_until_complete(&self, tasks: &[TaskId]) -> Result<()> {
            self.0.run_until_complete(tasks)
        }
        fn api_calls(&self) -> u64 {
            self.0.api_calls()
        }
        fn now(&self) -> SimTime {
            self.0.now()
        }
    }

    #[test]
    fn per_row_defaults_reject_a_bulk_answer_of_zero_or_two() {
        for n in [0, 2] {
            let p = WrongCount(sim(), n);
            let proj = p.create_project("t").unwrap();
            let bad = |r: Result<()>| matches!(r, Err(Error::BadResponse(_)));
            let spec = specs(1).remove(0);
            assert!(bad(p.publish_task(proj, spec.clone()).map(drop)), "publish, {n} items");
            let id = p.0.publish_tasks(proj, vec![spec]).unwrap()[0].id;
            assert!(bad(p.fetch_runs(id).map(drop)), "fetch, {n} items");
            assert!(bad(p.is_complete(id).map(drop)), "probe, {n} items");
        }
    }

    #[test]
    fn are_complete_maps_unknown_to_none() {
        // Some(done) for known tasks, None for unknown ids.
        for p in platforms() {
            let proj = p.create_project("t").unwrap();
            let tasks = p.publish_tasks(proj, specs(2)).unwrap();
            p.run_until_complete(&[tasks[0].id]).unwrap();
            let status = p.are_complete(&[tasks[0].id, 999, tasks[1].id]).unwrap();
            assert_eq!(status[0], Some(true), "{}", p.name());
            assert_eq!(status[1], None, "{}", p.name());
            assert!(status[2].is_some(), "{}", p.name());
        }
    }

    #[test]
    fn status_probes_are_free_on_every_platform() {
        // The one probe-accounting semantics, pinned across every
        // in-tree stack: is_complete/are_complete never count toward
        // api_calls (and never charge FailingPlatform's budget).
        let probe_storm = |p: &dyn CrowdPlatform| {
            let proj = p.create_project("t").unwrap();
            let tasks = p.publish_tasks(proj, specs(3)).unwrap();
            let ids: Vec<TaskId> = tasks.iter().map(|t| t.id).collect();
            p.run_until_complete(&ids).unwrap();
            let before = p.api_calls();
            for &t in &ids {
                assert_eq!(p.is_complete(t), Ok(true));
            }
            let _ = p.are_complete(&ids).unwrap();
            assert_eq!(p.api_calls(), before, "{}: probes must be free", p.name());
        };
        for p in platforms() {
            probe_storm(p.as_ref());
        }

        let failing = FailingPlatform::new(Arc::new(sim()), 100);
        probe_storm(&failing);
        // The wait and its probes are free too: only create (1) and the
        // bulk publish (1) were charged.
        assert_eq!(failing.remaining(), 98);
    }

    #[test]
    fn run_until_complete_unknown_task_errors() {
        let p = sim();
        let proj = p.create_project("t").unwrap();
        let t = p.publish_tasks(proj, specs(1)).unwrap().remove(0);
        assert_eq!(p.run_until_complete(&[t.id, 404]).unwrap_err(), Error::UnknownTask(404));
    }
}
