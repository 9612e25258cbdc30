//! Fault injection: a platform wrapper that fails after a call budget.
//!
//! The paper's sharable requirement is about surviving crashes *mid-
//! experiment*. [`FailingPlatform`] wraps any [`CrowdPlatform`] and makes
//! every API call after the first `budget` return [`Error::Injected`] —
//! emulating the process dying between "published task 57" and "published
//! task 58". The crash-recovery experiment (E4) reruns the experiment over
//! the same store afterwards and verifies only the remaining work happens.

use crate::error::{Error, Result};
use crate::platform::CrowdPlatform;
use crate::types::{Project, ProjectId, SimTime, Task, TaskId, TaskRun, TaskSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Wraps a platform; API calls beyond `budget` fail with
/// [`Error::Injected`]. `step`, the wait, status probes and reads of the
/// clock never fail — the crash is the *client's* crash, not the crowd's.
///
/// The budget is one atomic counter, decremented with a single
/// compare-and-swap per charged call, so concurrent in-flight batches (the
/// pipelined execution engine keeps several outstanding at once) can
/// neither double-spend a unit nor race past zero: with budget `b`,
/// exactly `b` calls succeed no matter how many threads are charging.
/// *Which* batch the crash lands on is pinned separately: the pipelined
/// bulk variants charge inside their [`IssueGate`](crate::gate::IssueGate)
/// turn (via the trait defaults), so the budget runs out at the same batch
/// index at every in-flight depth.
pub struct FailingPlatform<P> {
    inner: Arc<P>,
    budget: AtomicU64,
}

impl<P: CrowdPlatform> FailingPlatform<P> {
    /// Allows `budget` API calls before failing.
    pub fn new(inner: Arc<P>, budget: u64) -> Self {
        FailingPlatform { inner, budget: AtomicU64::new(budget) }
    }

    /// Replenishes the budget (e.g. "the process restarted").
    pub fn reset_budget(&self, budget: u64) {
        self.budget.store(budget, Ordering::SeqCst);
    }

    /// Remaining allowed calls.
    pub fn remaining(&self) -> u64 {
        self.budget.load(Ordering::SeqCst)
    }

    /// The wrapped platform.
    pub fn inner(&self) -> &Arc<P> {
        &self.inner
    }

    /// Atomically spends one budget unit: a lone `fetch_update` that
    /// decrements only while positive, so exhaustion cannot be overshot
    /// by concurrent chargers (no load-then-store window).
    fn charge(&self) -> Result<()> {
        self.budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| cur.checked_sub(1))
            .map(|_| ())
            .map_err(|_| Error::Injected("API-call budget exhausted".into()))
    }
}

impl<P: CrowdPlatform> CrowdPlatform for FailingPlatform<P> {
    fn name(&self) -> &str {
        "failing"
    }

    fn create_project(&self, name: &str) -> Result<ProjectId> {
        self.charge()?;
        self.inner.create_project(name)
    }

    fn project(&self, id: ProjectId) -> Result<Project> {
        self.inner.project(id)
    }

    /// One budget unit per bulk request (a batch is one round-trip), then
    /// forwards to the wrapped platform's bulk publish. A crash therefore
    /// lands *between* batches — the granularity the batched pipeline's
    /// recovery story is built on.
    fn publish_tasks(&self, project: ProjectId, specs: Vec<TaskSpec>) -> Result<Vec<Task>> {
        if specs.is_empty() {
            return Ok(Vec::new());
        }
        self.charge()?;
        self.inner.publish_tasks(project, specs)
    }

    fn task(&self, id: TaskId) -> Result<Task> {
        self.charge()?;
        self.inner.task(id)
    }

    /// One budget unit per bulk request, then forwards to the wrapped
    /// platform's bulk fetch.
    fn fetch_runs_bulk(&self, tasks: &[TaskId]) -> Result<Vec<Vec<TaskRun>>> {
        if tasks.is_empty() {
            return Ok(Vec::new());
        }
        self.charge()?;
        self.inner.fetch_runs_bulk(tasks)
    }

    /// Status probes are never charged (the budget models the calls the
    /// experiments count).
    fn are_complete(&self, tasks: &[TaskId]) -> Result<Vec<Option<bool>>> {
        self.inner.are_complete(tasks)
    }

    fn step(&self) -> Result<bool> {
        self.inner.step()
    }

    /// Waiting drives the crowd, not the client: forwarded uncharged, like
    /// [`step`](CrowdPlatform::step) and the status probes.
    fn run_until_complete(&self, tasks: &[TaskId]) -> Result<()> {
        self.inner.run_until_complete(tasks)
    }

    fn api_calls(&self) -> u64 {
        self.inner.api_calls()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimPlatform;

    fn sim() -> Arc<SimPlatform> {
        Arc::new(SimPlatform::quick(3, 0.9, 1))
    }

    #[test]
    fn fails_after_budget() {
        let p = FailingPlatform::new(sim(), 3);
        let proj = p.create_project("x").unwrap(); // 1
        let spec = || TaskSpec { payload: serde_json::json!(1), n_assignments: 1 };
        p.publish_task(proj, spec()).unwrap(); // 2
        p.publish_task(proj, spec()).unwrap(); // 3
        let err = p.publish_task(proj, spec()).unwrap_err();
        assert!(matches!(err, Error::Injected(_)));
        assert_eq!(p.remaining(), 0);
    }

    #[test]
    fn partial_publish_leaves_prefix_on_platform() {
        // Publishing 6 tasks in batches of 2 with budget 1+2: the project
        // plus two whole batches land; the third batch fails. Exactly the
        // crash-between-batches scenario the batched pipeline recovers from.
        let inner = sim();
        let p = FailingPlatform::new(Arc::clone(&inner), 3);
        let proj = p.create_project("x").unwrap();
        let spec = |i: i32| TaskSpec { payload: serde_json::json!(i), n_assignments: 1 };
        assert_eq!(p.publish_tasks(proj, vec![spec(0), spec(1)]).unwrap().len(), 2);
        assert_eq!(p.publish_tasks(proj, vec![spec(2), spec(3)]).unwrap().len(), 2);
        let err = p.publish_tasks(proj, vec![spec(4), spec(5)]).unwrap_err();
        assert!(matches!(err, Error::Injected(_)));
        // Four tasks (two atomic batches) made it to the real platform
        // before the "crash"; the failed batch left nothing behind.
        assert_eq!(inner.api_calls(), 3); // create + 2 bulk publishes
    }

    #[test]
    fn bulk_ops_cost_one_budget_unit_each() {
        let inner = sim();
        let p = FailingPlatform::new(Arc::clone(&inner), 2);
        let proj = p.create_project("x").unwrap(); // 1 unit
        let specs: Vec<TaskSpec> = (0..10)
            .map(|i| TaskSpec { payload: serde_json::json!(i), n_assignments: 1 })
            .collect();
        // 10 specs, 1 unit: a batch is one round-trip.
        let tasks = p.publish_tasks(proj, specs).unwrap();
        assert_eq!(tasks.len(), 10);
        assert_eq!(p.remaining(), 0);
        // Empty bulk requests are free even with an exhausted budget.
        assert!(p.publish_tasks(proj, Vec::new()).unwrap().is_empty());
        assert!(p.fetch_runs_bulk(&[]).unwrap().is_empty());
        // A non-empty bulk fetch now fails: the budget is spent.
        let ids: Vec<_> = tasks.iter().map(|t| t.id).collect();
        assert!(matches!(p.fetch_runs_bulk(&ids).unwrap_err(), Error::Injected(_)));
    }

    #[test]
    fn reset_budget_resumes() {
        let p = FailingPlatform::new(sim(), 1);
        let proj = p.create_project("x").unwrap();
        assert!(p
            .publish_task(proj, TaskSpec { payload: serde_json::json!(1), n_assignments: 1 })
            .is_err());
        p.reset_budget(10);
        assert!(p
            .publish_task(proj, TaskSpec { payload: serde_json::json!(1), n_assignments: 1 })
            .is_ok());
    }

    #[test]
    fn concurrent_bulk_calls_never_overspend_the_budget() {
        // 32 threads race 4 bulk publishes each against a budget of 9
        // (after create): exactly 9 must succeed, the rest must all see
        // the injected fault, and the counter must end exactly at zero.
        use std::sync::atomic::AtomicUsize;
        let inner = sim();
        let p = FailingPlatform::new(Arc::clone(&inner), 10);
        let proj = p.create_project("x").unwrap(); // spends 1
        let ok = AtomicUsize::new(0);
        let failed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..32 {
                let p = &p;
                let ok = &ok;
                let failed = &failed;
                scope.spawn(move || {
                    for i in 0..4 {
                        let spec = TaskSpec {
                            payload: serde_json::json!([t, i]),
                            n_assignments: 1,
                        };
                        match p.publish_tasks(proj, vec![spec]) {
                            Ok(_) => ok.fetch_add(1, Ordering::SeqCst),
                            Err(Error::Injected(_)) => failed.fetch_add(1, Ordering::SeqCst),
                            Err(e) => panic!("unexpected error: {e}"),
                        };
                    }
                });
            }
        });
        assert_eq!(ok.load(Ordering::SeqCst), 9, "exactly the budget succeeds");
        assert_eq!(failed.load(Ordering::SeqCst), 32 * 4 - 9);
        assert_eq!(p.remaining(), 0, "no underflow, no leftover");
        // Every accepted batch reached the real platform (create + 9).
        assert_eq!(inner.api_calls(), 10);
    }

    #[test]
    fn pipelined_charges_land_in_slot_order() {
        // Budget for create + 3 batches, 6 batches in flight: the gate
        // (via the trait's default pipelined publish) must make the budget
        // run out at batch 3 — and cancel 4 and 5 before they charge — at
        // every thread interleaving.
        use crate::gate::IssueGate;
        for _round in 0..8 {
            let inner = sim();
            let p = FailingPlatform::new(Arc::clone(&inner), 4);
            let proj = p.create_project("x").unwrap();
            let gate = IssueGate::new();
            let outcomes: Vec<Result<Vec<crate::types::Task>>> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..6u64)
                        .map(|slot| {
                            let p = &p;
                            let gate = &gate;
                            scope.spawn(move || {
                                let spec = TaskSpec {
                                    payload: serde_json::json!(slot),
                                    n_assignments: 1,
                                };
                                p.publish_tasks_pipelined(proj, vec![spec], gate, slot)
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
            for (slot, out) in outcomes.iter().enumerate() {
                match slot {
                    0..=2 => assert!(out.is_ok(), "batch {slot} fits the budget"),
                    3 => assert!(
                        matches!(out, Err(Error::Injected(_))),
                        "batch 3 must be the crash point, got {out:?}"
                    ),
                    _ => assert!(
                        matches!(out, Err(Error::Cancelled(_))),
                        "batch {slot} must be cancelled, got {out:?}"
                    ),
                }
            }
            // Cancelled batches never reached the platform or the budget.
            assert_eq!(inner.api_calls(), 4, "create + exactly 3 accepted batches");
            assert_eq!(p.remaining(), 0);
        }
    }

    #[test]
    fn step_and_clock_never_charged() {
        let p = FailingPlatform::new(sim(), 0);
        assert!(!p.step().unwrap());
        p.run_until_complete(&[]).unwrap();
        let _ = p.now();
        assert_eq!(p.remaining(), 0);
    }
}
