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
//! * **Bulk operations** ([`CrowdPlatform::publish_tasks`],
//!   [`CrowdPlatform::fetch_runs_bulk`],
//!   [`CrowdPlatform::are_complete`]) — the batched pipeline publishes,
//!   probes, and fetches in chunks, so end-to-end cost stops scaling
//!   linearly in round-trips. Implementations that override the defaults
//!   count one API call per bulk publish/fetch request, matching how real
//!   bulk endpoints bill (status probes stay free, like `is_complete`).

use crate::error::{Error, Result};
use crate::gate::IssueGate;
use crate::types::{Project, ProjectId, SimTime, Task, TaskId, TaskRun, TaskSpec};

/// Counts how many of `tasks` are still open given an
/// [`are_complete`](CrowdPlatform::are_complete) status vector, failing
/// with [`Error::UnknownTask`] on ids the platform does not know. Shared
/// by the trait's default driver and platform-specific overrides.
pub(crate) fn still_open(tasks: &[TaskId], status: &[Option<bool>]) -> Result<usize> {
    let mut open = 0;
    for (i, st) in status.iter().enumerate() {
        match st {
            None => return Err(Error::UnknownTask(tasks[i])),
            Some(false) => open += 1,
            Some(true) => {}
        }
    }
    Ok(open)
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
/// order-insensitive: each pipelined variant's default wraps the call's
/// *effect* in an [`IssueGate`] turn, so whatever
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

    /// Publishes one task. Counts as one API call.
    fn publish_task(&self, project: ProjectId, spec: TaskSpec) -> Result<Task>;

    /// Publishes many tasks in one request.
    ///
    /// The default implementation is sequential [`publish_task`] calls
    /// (one API call *per spec*), failing fast on the first error — tasks
    /// already accepted stay accepted, exactly how a remote API behaves
    /// when the client dies mid-loop. Platforms with a native bulk
    /// endpoint ([`SimPlatform`], [`MockPlatform`]) override this with an
    /// **atomic** one-API-call implementation: either every spec is
    /// accepted (tasks returned in spec order, ids ascending) or none is.
    /// Publishing an empty batch is free and issues no API call.
    ///
    /// Task ids, payloads, and timestamps are identical to what the same
    /// specs published one-by-one would produce; only the API-call count
    /// differs. The batched client pipeline relies on this to keep
    /// collected results bit-identical across batch sizes.
    ///
    /// [`publish_task`]: CrowdPlatform::publish_task
    /// [`SimPlatform`]: crate::SimPlatform
    /// [`MockPlatform`]: crate::MockPlatform
    fn publish_tasks(&self, project: ProjectId, specs: Vec<TaskSpec>) -> Result<Vec<Task>> {
        let mut out = Vec::with_capacity(specs.len());
        for spec in specs {
            out.push(self.publish_task(project, spec)?);
        }
        Ok(out)
    }

    /// Fetches a task's current state. Counts as one API call.
    fn task(&self, id: TaskId) -> Result<Task>;

    /// Fetches all runs collected for a task so far. Counts as one API call.
    fn fetch_runs(&self, task: TaskId) -> Result<Vec<TaskRun>>;

    /// Fetches the runs of many tasks in one request, in input order.
    ///
    /// The default implementation is sequential [`fetch_runs`] calls (one
    /// API call per task). Platforms with a native bulk endpoint override
    /// this to serve the whole request as **one** API call from a single
    /// consistent snapshot; if any listed task is unknown the whole call
    /// fails with [`Error::UnknownTask`] and nothing is returned. Fetching
    /// an empty batch is free and issues no API call.
    ///
    /// [`fetch_runs`]: CrowdPlatform::fetch_runs
    fn fetch_runs_bulk(&self, tasks: &[TaskId]) -> Result<Vec<Vec<TaskRun>>> {
        let mut out = Vec::with_capacity(tasks.len());
        for &t in tasks {
            out.push(self.fetch_runs(t)?);
        }
        Ok(out)
    }

    /// True if the task has met its redundancy target.
    ///
    /// **Status probes are free**: neither `is_complete` nor
    /// [`are_complete`](CrowdPlatform::are_complete) counts toward
    /// [`api_calls`](CrowdPlatform::api_calls) on any in-process platform
    /// ([`FailingPlatform`](crate::FailingPlatform) does not charge its
    /// budget for them either). `api_calls` measures the paper's sharable
    /// property — *crowd work requested* — and a poll requests none. A
    /// real remote adapter still pays wall-clock round-trips to poll, which
    /// is why the batched pipeline probes per batch and meters those
    /// round-trips in its own client-side ledger
    /// (`ExecutionContext::metrics`), never here. Pinned by the
    /// `status_probes_are_free_on_every_platform` test.
    fn is_complete(&self, task: TaskId) -> Result<bool>;

    /// Reports completion for many tasks in one request, in input order:
    /// `Some(true)` complete, `Some(false)` still open, `None` unknown to
    /// the platform (e.g. the platform restarted and lost it — callers
    /// use this to decide what to republish).
    ///
    /// The default implementation is sequential [`is_complete`] calls,
    /// mapping [`Error::UnknownTask`] to `None`. Like `is_complete`, the
    /// in-process platforms do not count this as an API call; a real
    /// remote adapter would serve it as **one** round-trip, which is why
    /// the batched pipeline probes completion through this method rather
    /// than per row.
    ///
    /// [`is_complete`]: CrowdPlatform::is_complete
    fn are_complete(&self, tasks: &[TaskId]) -> Result<Vec<Option<bool>>> {
        tasks
            .iter()
            .map(|&t| match self.is_complete(t) {
                Ok(done) => Ok(Some(done)),
                Err(Error::UnknownTask(_)) => Ok(None),
                Err(e) => Err(e),
            })
            .collect()
    }

    /// Makes internal progress (simulated crowd work). Returns `false` when
    /// there is nothing further to process. Not an API call.
    fn step(&self) -> Result<bool>;

    /// Drives [`step`](CrowdPlatform::step) until every listed task is
    /// complete. Errors with [`Error::Starved`] if the platform goes
    /// quiescent with listed tasks still open, and with
    /// [`Error::UnknownTask`] if a listed task does not exist.
    ///
    /// The default drains to quiescence — one completion probe, then
    /// `step` until it returns `false`, then one final probe — instead of
    /// re-probing every listed task per step, which made driving n tasks
    /// O(n·steps). Unlike that historical per-step loop, draining may
    /// progress *unlisted* open tasks past the point where the listed ones
    /// complete; this never changes already-completed tasks (their runs
    /// are immutable), only how far still-open ones have advanced when the
    /// call returns. Platforms may override this with a faster driver
    /// ([`SimPlatform`] drains under one lock acquisition instead of one
    /// per event).
    ///
    /// [`SimPlatform`]: crate::SimPlatform
    fn run_until_complete(&self, tasks: &[TaskId]) -> Result<()> {
        if still_open(tasks, &self.are_complete(tasks)?)? == 0 {
            return Ok(());
        }
        while self.step()? {}
        let open = still_open(tasks, &self.are_complete(tasks)?)?;
        if open > 0 {
            return Err(Error::Starved(format!(
                "no further progress possible with {open} tasks still open"
            )));
        }
        Ok(())
    }

    /// Pipelined bulk publish: [`publish_tasks`](CrowdPlatform::publish_tasks)
    /// whose *effect* (id allocation, registration, accounting) is
    /// serialized into `order`'s slot sequence, so several batches can be
    /// on the wire at once while the platform still observes them in batch
    /// order — the property the pipelined engine's bit-for-bit determinism
    /// rests on.
    ///
    /// The default takes the turn around the entire call (correct for any
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
        let turn = order.turn(slot)?;
        let out = self.publish_tasks(project, specs)?;
        turn.complete();
        Ok(out)
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
        let turn = order.turn(slot)?;
        let out = self.fetch_runs_bulk(tasks)?;
        turn.complete();
        Ok(out)
    }

    /// Pipelined bulk status probe: [`are_complete`](CrowdPlatform::are_complete)
    /// in slot order. Free like every status probe.
    fn are_complete_pipelined(
        &self,
        tasks: &[TaskId],
        order: &IssueGate,
        slot: u64,
    ) -> Result<Vec<Option<bool>>> {
        let turn = order.turn(slot)?;
        let out = self.are_complete(tasks)?;
        turn.complete();
        Ok(out)
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
        let turn = order.turn(slot)?;
        self.run_until_complete(tasks)?;
        turn.complete();
        Ok(())
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
    use crate::mock::MockPlatform;

    /// A platform that deliberately does NOT override the bulk defaults,
    /// so the trait's sequential fallbacks stay covered.
    struct NoBulk(MockPlatform);

    impl CrowdPlatform for NoBulk {
        fn name(&self) -> &str {
            "no-bulk"
        }
        fn create_project(&self, name: &str) -> Result<ProjectId> {
            self.0.create_project(name)
        }
        fn project(&self, id: ProjectId) -> Result<Project> {
            self.0.project(id)
        }
        fn publish_task(&self, project: ProjectId, spec: TaskSpec) -> Result<Task> {
            self.0.publish_task(project, spec)
        }
        fn task(&self, id: TaskId) -> Result<Task> {
            self.0.task(id)
        }
        fn fetch_runs(&self, task: TaskId) -> Result<Vec<TaskRun>> {
            self.0.fetch_runs(task)
        }
        fn is_complete(&self, task: TaskId) -> Result<bool> {
            self.0.is_complete(task)
        }
        fn step(&self) -> Result<bool> {
            self.0.step()
        }
        fn api_calls(&self) -> u64 {
            self.0.api_calls()
        }
        fn now(&self) -> SimTime {
            self.0.now()
        }
    }

    fn specs(n: usize) -> Vec<TaskSpec> {
        (0..n)
            .map(|i| TaskSpec { payload: serde_json::json!({ "i": i }), n_assignments: 1 })
            .collect()
    }

    #[test]
    fn default_publish_tasks_is_sequential() {
        let p = NoBulk(MockPlatform::echo());
        let proj = p.create_project("t").unwrap();
        let tasks = p.publish_tasks(proj, specs(4)).unwrap();
        assert_eq!(tasks.len(), 4);
        // ids are distinct and ascending
        for w in tasks.windows(2) {
            assert!(w[0].id < w[1].id);
        }
        // The fallback pays one API call per spec (plus project creation).
        assert_eq!(p.api_calls(), 5);
    }

    #[test]
    fn default_fetch_runs_bulk_is_sequential() {
        let p = NoBulk(MockPlatform::echo());
        let proj = p.create_project("t").unwrap();
        let tasks = p.publish_tasks(proj, specs(3)).unwrap();
        let ids: Vec<TaskId> = tasks.iter().map(|t| t.id).collect();
        p.run_until_complete(&ids).unwrap();
        let before = p.api_calls();
        let runs = p.fetch_runs_bulk(&ids).unwrap();
        assert_eq!(runs.len(), 3);
        assert!(runs.iter().all(|r| r.len() == 1));
        assert_eq!(p.api_calls() - before, 3, "fallback = one call per task");
    }

    #[test]
    fn bulk_overrides_equal_sequential_but_one_call() {
        // Same specs through the sequential fallback and the native bulk
        // endpoint: identical tasks and runs, different API-call counts.
        let seq = NoBulk(MockPlatform::echo());
        let bulk = MockPlatform::echo();
        let (ps, pb) = (seq.create_project("t").unwrap(), bulk.create_project("t").unwrap());
        let ts = seq.publish_tasks(ps, specs(5)).unwrap();
        let tb = bulk.publish_tasks(pb, specs(5)).unwrap();
        assert_eq!(ts, tb, "bulk publish must register identical tasks");
        let ids: Vec<TaskId> = ts.iter().map(|t| t.id).collect();
        seq.run_until_complete(&ids).unwrap();
        bulk.run_until_complete(&ids).unwrap();
        assert_eq!(seq.fetch_runs_bulk(&ids).unwrap(), bulk.fetch_runs_bulk(&ids).unwrap());
        // create(1) + publishes + fetches: 1+5+5 vs 1+1+1.
        assert_eq!(seq.api_calls(), 11);
        assert_eq!(bulk.api_calls(), 3);
    }

    #[test]
    fn are_complete_maps_unknown_to_none() {
        // Both the sequential default and the mock's native override must
        // agree: Some(done) for known tasks, None for unknown ids.
        for p in [
            Box::new(NoBulk(MockPlatform::echo())) as Box<dyn CrowdPlatform>,
            Box::new(MockPlatform::echo()),
        ] {
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
        // in-process platform: is_complete/are_complete never count toward
        // api_calls (and never charge FailingPlatform's budget).
        use crate::failing::FailingPlatform;
        use crate::SimPlatform;
        use std::sync::Arc;

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
        probe_storm(&MockPlatform::echo());
        probe_storm(&SimPlatform::quick(3, 0.9, 1));

        let failing = FailingPlatform::new(Arc::new(MockPlatform::echo()), 100);
        probe_storm(&failing);
        // run_until_complete's own probes are free too: only create (1)
        // and the bulk publish (1) were charged.
        assert_eq!(failing.remaining(), 98);
    }

    #[test]
    fn run_until_complete_unknown_task_errors() {
        let p = MockPlatform::echo();
        let proj = p.create_project("t").unwrap();
        let t = p.publish_tasks(proj, specs(1)).unwrap().remove(0);
        assert_eq!(
            p.run_until_complete(&[t.id, 404]).unwrap_err(),
            Error::UnknownTask(404)
        );
    }

    #[test]
    fn run_until_complete_on_mock() {
        let p = MockPlatform::echo();
        let proj = p.create_project("t").unwrap();
        let t = p
            .publish_task(
                proj,
                TaskSpec { payload: serde_json::json!("x"), n_assignments: 2 },
            )
            .unwrap();
        p.run_until_complete(&[t.id]).unwrap();
        assert!(p.is_complete(t.id).unwrap());
        assert_eq!(p.fetch_runs(t.id).unwrap().len(), 2);
    }
}
