//! [`LatencyPlatform`] — wire latency for any [`CrowdPlatform`].
//!
//! The in-process platforms answer in microseconds, which hides the cost
//! structure of a real crowd backend: there, every round-trip pays tens to
//! hundreds of milliseconds of network latency, and that latency — not the
//! server work — dominates end-to-end publish/collect time. This wrapper
//! restores that cost so the pipelined execution engine's overlap can be
//! measured (experiment E15): each client-visible round-trip sleeps a
//! configurable wall-clock duration, split into a request half before the
//! inner call and a response half after it.
//!
//! The four pipelined variants share one helper that models a pipelined
//! connection faithfully: the sleeps happen *outside* the
//! [`IssueGate`] turn while the inner call — the
//! server-side effect — happens inside it. Concurrent in-flight batches
//! therefore overlap their wire time but apply their effects in slot
//! order, which keeps results bit-identical to sequential execution at
//! every in-flight depth.
//!
//! (Not to be confused with [`crate::sim::latency`], the worker
//! *think-time* distributions inside the simulated crowd. This module
//! models the client ↔ platform wire.)

use crate::error::Result;
use crate::gate::IssueGate;
use crate::platform::CrowdPlatform;
use crate::types::{Project, ProjectId, SimTime, Task, TaskId, TaskRun, TaskSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Wraps a platform so every round-trip costs `rtt` of wall-clock time.
///
/// Empty bulk requests stay free (no request is sent), matching the bulk
/// endpoints' accounting. `step`, `now`, and `project` lookups are treated
/// as local (the simulator's event loop is not a network peer).
pub struct LatencyPlatform<P> {
    inner: Arc<P>,
    rtt: Duration,
    round_trips: AtomicU64,
}

impl<P: CrowdPlatform> LatencyPlatform<P> {
    /// Adds `rtt` of round-trip latency in front of `inner`.
    pub fn new(inner: Arc<P>, rtt: Duration) -> Self {
        LatencyPlatform { inner, rtt, round_trips: AtomicU64::new(0) }
    }

    /// The wrapped platform.
    pub fn inner(&self) -> &Arc<P> {
        &self.inner
    }

    /// Wall-clock round-trips served (latency-charged calls).
    pub fn round_trips(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }

    /// Sleeps a full round-trip and counts it.
    fn pay_full(&self) {
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(self.rtt);
    }

    /// A full round-trip around `call`, counted. An `empty` request is
    /// free: nothing goes on the wire and `call` is not made.
    fn round_trip<T: Default>(&self, empty: bool, call: impl FnOnce() -> Result<T>) -> Result<T> {
        if empty {
            return Ok(T::default());
        }
        self.pay_full();
        call()
    }

    /// One pipelined bulk request: the request leg on the wire (counted as
    /// a round-trip), `effect` inside slot `slot`'s turn, then the response
    /// leg on the wire. In-flight batches overlap their latency while the
    /// platform applies them in slot order. An `empty` request sends
    /// nothing but still takes and completes its slot.
    fn pipelined<T: Default>(
        &self,
        empty: bool,
        order: &IssueGate,
        slot: u64,
        effect: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        if empty {
            return order.run(slot, || Ok(T::default()));
        }
        let half = self.rtt / 2;
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(half);
        let out = order.run(slot, effect)?;
        std::thread::sleep(self.rtt - half);
        Ok(out)
    }
}

impl<P: CrowdPlatform> CrowdPlatform for LatencyPlatform<P> {
    fn name(&self) -> &str {
        "latency"
    }

    fn create_project(&self, name: &str) -> Result<ProjectId> {
        self.pay_full();
        self.inner.create_project(name)
    }

    fn project(&self, id: ProjectId) -> Result<Project> {
        self.inner.project(id)
    }

    fn publish_tasks(&self, project: ProjectId, specs: Vec<TaskSpec>) -> Result<Vec<Task>> {
        self.round_trip(specs.is_empty(), || self.inner.publish_tasks(project, specs))
    }

    fn publish_tasks_pipelined(
        &self,
        project: ProjectId,
        specs: Vec<TaskSpec>,
        order: &IssueGate,
        slot: u64,
    ) -> Result<Vec<Task>> {
        self.pipelined(specs.is_empty(), order, slot, || self.inner.publish_tasks(project, specs))
    }

    fn task(&self, id: TaskId) -> Result<Task> {
        self.pay_full();
        self.inner.task(id)
    }

    fn fetch_runs_bulk(&self, tasks: &[TaskId]) -> Result<Vec<Vec<TaskRun>>> {
        self.round_trip(tasks.is_empty(), || self.inner.fetch_runs_bulk(tasks))
    }

    fn fetch_runs_bulk_pipelined(
        &self,
        tasks: &[TaskId],
        order: &IssueGate,
        slot: u64,
    ) -> Result<Vec<Vec<TaskRun>>> {
        self.pipelined(tasks.is_empty(), order, slot, || self.inner.fetch_runs_bulk(tasks))
    }

    /// A status probe is free on the API-call meter but still a wall-clock
    /// round-trip — the asymmetry the client-side probe ledger exists for.
    fn are_complete(&self, tasks: &[TaskId]) -> Result<Vec<Option<bool>>> {
        self.round_trip(tasks.is_empty(), || self.inner.are_complete(tasks))
    }

    fn are_complete_pipelined(
        &self,
        tasks: &[TaskId],
        order: &IssueGate,
        slot: u64,
    ) -> Result<Vec<Option<bool>>> {
        self.pipelined(tasks.is_empty(), order, slot, || self.inner.are_complete(tasks))
    }

    fn step(&self) -> Result<bool> {
        self.inner.step()
    }

    /// One poll cycle's worth of latency, then the inner platform's own
    /// (fast) completion driver.
    fn run_until_complete(&self, tasks: &[TaskId]) -> Result<()> {
        self.round_trip(tasks.is_empty(), || self.inner.run_until_complete(tasks))
    }

    fn run_until_complete_pipelined(
        &self,
        tasks: &[TaskId],
        order: &IssueGate,
        slot: u64,
    ) -> Result<()> {
        self.pipelined(tasks.is_empty(), order, slot, || self.inner.run_until_complete(tasks))
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
    use std::time::Instant;

    fn sim() -> SimPlatform {
        SimPlatform::quick(3, 0.9, 1)
    }

    fn specs(n: usize) -> Vec<TaskSpec> {
        (0..n)
            .map(|i| TaskSpec { payload: serde_json::json!({ "i": i }), n_assignments: 1 })
            .collect()
    }

    #[test]
    fn results_identical_to_inner_and_calls_delegate() {
        let rtt = Duration::from_millis(1);
        let lat = LatencyPlatform::new(Arc::new(sim()), rtt);
        let bare = sim();
        let (pl, pb) = (lat.create_project("t").unwrap(), bare.create_project("t").unwrap());
        let tl = lat.publish_tasks(pl, specs(3)).unwrap();
        let tb = bare.publish_tasks(pb, specs(3)).unwrap();
        assert_eq!(tl, tb, "latency must not change what the platform returns");
        let ids: Vec<TaskId> = tl.iter().map(|t| t.id).collect();
        lat.run_until_complete(&ids).unwrap();
        bare.run_until_complete(&ids).unwrap();
        assert_eq!(lat.fetch_runs_bulk(&ids).unwrap(), bare.fetch_runs_bulk(&ids).unwrap());
        assert_eq!(lat.api_calls(), bare.api_calls());
        assert!(lat.round_trips() >= 3, "create + publish + rc + fetch were on the wire");
    }

    #[test]
    fn pipelined_batches_overlap_but_apply_in_slot_order() {
        // 4 batches of 25ms RTT in flight at once: sequential wire time
        // would be ≥ 100ms; overlapped it is ~25ms + scheduling. The ids
        // must still come out in slot order (batch 0 gets the lowest ids).
        let rtt = Duration::from_millis(25);
        let lat = LatencyPlatform::new(Arc::new(sim()), rtt);
        let proj = lat.create_project("t").unwrap();
        let gate = IssueGate::new();
        let start = Instant::now();
        let batches: Vec<Vec<Task>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u64)
                .map(|slot| {
                    let lat = &lat;
                    let gate = &gate;
                    scope.spawn(move || {
                        lat.publish_tasks_pipelined(proj, specs(2), gate, slot).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let wall = start.elapsed();
        for (slot, batch) in batches.iter().enumerate() {
            assert_eq!(batch[0].id, 1 + 2 * slot as u64, "slot {slot} got wrong ids");
        }
        assert!(
            wall < Duration::from_millis(80),
            "4 pipelined 25ms round-trips took {wall:?} — no overlap happened"
        );
    }

    #[test]
    fn empty_bulk_requests_are_free_but_advance_the_slot() {
        let lat = LatencyPlatform::new(Arc::new(sim()), Duration::from_secs(5));
        let gate = IssueGate::new();
        let start = Instant::now();
        assert!(lat.fetch_runs_bulk(&[]).unwrap().is_empty());
        assert!(lat.are_complete(&[]).unwrap().is_empty());
        lat.run_until_complete(&[]).unwrap();
        assert!(lat.are_complete_pipelined(&[], &gate, 0).unwrap().is_empty());
        assert!(lat
            .publish_tasks_pipelined(1, Vec::new(), &gate, 1)
            .unwrap()
            .is_empty());
        assert!(lat.fetch_runs_bulk_pipelined(&[], &gate, 2).unwrap().is_empty());
        lat.run_until_complete_pipelined(&[], &gate, 3).unwrap();
        assert_eq!(gate.admitted(), 4, "empty calls must still advance the order");
        assert_eq!(lat.round_trips(), 0);
        assert!(start.elapsed() < Duration::from_secs(1), "empty calls must not sleep");
    }
}
