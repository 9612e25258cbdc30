//! The traced run's instruments: decorators at the two I/O seams the
//! library exposes, timing every call into a layer from outside it.
//!
//! * [`ClientEdge`] sits where the client calls the platform and forwards
//!   **every** method, the `*_pipelined` variants included, so a wrapped
//!   [`LatencyPlatform`](reprowd_platform::LatencyPlatform) keeps serving
//!   its wire time outside the issue-gate turn.
//! * [`EffectEdge`] sits directly on the simulator and forwards every
//!   non-pipelined method. It keeps the trait's default pipelined variants,
//!   so the gate turn is taken *outside* it and its timers see only the
//!   platform's effect (plus, for `run_until_complete`, the simulator's
//!   drain). Client-edge time minus effect time is gate wait plus wire.
//! * [`StoreEdge`] wraps the database [`Backend`] and records the exact
//!   cell bytes crossing it, for the codec replay.
//!
//! Counters are atomics because the pipelined engine calls both seams from
//! its worker threads; times are summed over calling threads.

use reprowd_platform::{
    CrowdPlatform, IssueGate, Project, ProjectId, SimPlatform, SimTime, Task, TaskId, TaskRun,
    TaskSpec,
};
use reprowd_storage::{Backend, Batch, Op, StoreStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

type PResult<T> = reprowd_platform::Result<T>;
type SResult<T> = reprowd_storage::Result<T>;

/// Busy time and call count of one kind of call.
#[derive(Default)]
pub struct Timer {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl Timer {
    /// Runs `f`, charging its wall time and one call to this timer.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Seconds charged so far.
    pub fn secs(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Calls charged so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// Client-edge platform decorator: time per call family, gate wait and
/// wire time included.
pub struct ClientEdge {
    inner: Arc<dyn CrowdPlatform>,
    /// `create_project` and every publish variant.
    pub publish: Timer,
    /// Completion probes.
    pub probe: Timer,
    /// Project/task lookups and run fetches.
    pub fetch: Timer,
    /// `run_until_complete` and `step`: waiting for the crowd.
    pub wait: Timer,
}

impl ClientEdge {
    /// Decorates `inner`.
    pub fn new(inner: Arc<dyn CrowdPlatform>) -> Self {
        ClientEdge {
            inner,
            publish: Timer::default(),
            probe: Timer::default(),
            fetch: Timer::default(),
            wait: Timer::default(),
        }
    }

    /// Seconds spent in every timed call.
    pub fn total_secs(&self) -> f64 {
        self.publish.secs() + self.probe.secs() + self.fetch.secs() + self.wait.secs()
    }
}

impl CrowdPlatform for ClientEdge {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn create_project(&self, name: &str) -> PResult<ProjectId> {
        self.publish.time(|| self.inner.create_project(name))
    }
    fn project(&self, id: ProjectId) -> PResult<Project> {
        self.fetch.time(|| self.inner.project(id))
    }
    fn publish_task(&self, project: ProjectId, spec: TaskSpec) -> PResult<Task> {
        self.publish.time(|| self.inner.publish_task(project, spec))
    }
    fn publish_tasks(&self, project: ProjectId, specs: Vec<TaskSpec>) -> PResult<Vec<Task>> {
        self.publish.time(|| self.inner.publish_tasks(project, specs))
    }
    fn task(&self, id: TaskId) -> PResult<Task> {
        self.fetch.time(|| self.inner.task(id))
    }
    fn fetch_runs(&self, task: TaskId) -> PResult<Vec<TaskRun>> {
        self.fetch.time(|| self.inner.fetch_runs(task))
    }
    fn fetch_runs_bulk(&self, tasks: &[TaskId]) -> PResult<Vec<Vec<TaskRun>>> {
        self.fetch.time(|| self.inner.fetch_runs_bulk(tasks))
    }
    fn is_complete(&self, task: TaskId) -> PResult<bool> {
        self.probe.time(|| self.inner.is_complete(task))
    }
    fn are_complete(&self, tasks: &[TaskId]) -> PResult<Vec<Option<bool>>> {
        self.probe.time(|| self.inner.are_complete(tasks))
    }
    fn step(&self) -> PResult<bool> {
        self.wait.time(|| self.inner.step())
    }
    fn run_until_complete(&self, tasks: &[TaskId]) -> PResult<()> {
        self.wait.time(|| self.inner.run_until_complete(tasks))
    }
    fn publish_tasks_pipelined(
        &self,
        project: ProjectId,
        specs: Vec<TaskSpec>,
        order: &IssueGate,
        slot: u64,
    ) -> PResult<Vec<Task>> {
        self.publish.time(|| self.inner.publish_tasks_pipelined(project, specs, order, slot))
    }
    fn fetch_runs_bulk_pipelined(
        &self,
        tasks: &[TaskId],
        order: &IssueGate,
        slot: u64,
    ) -> PResult<Vec<Vec<TaskRun>>> {
        self.fetch.time(|| self.inner.fetch_runs_bulk_pipelined(tasks, order, slot))
    }
    fn are_complete_pipelined(
        &self,
        tasks: &[TaskId],
        order: &IssueGate,
        slot: u64,
    ) -> PResult<Vec<Option<bool>>> {
        self.probe.time(|| self.inner.are_complete_pipelined(tasks, order, slot))
    }
    fn run_until_complete_pipelined(
        &self,
        tasks: &[TaskId],
        order: &IssueGate,
        slot: u64,
    ) -> PResult<()> {
        self.wait.time(|| self.inner.run_until_complete_pipelined(tasks, order, slot))
    }
    fn api_calls(&self) -> u64 {
        self.inner.api_calls()
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
}

/// Effect-edge decorator on the simulator. Only non-pipelined methods are
/// forwarded; the pipelined ones are the trait defaults, which take the
/// gate turn here and then call the timed non-pipelined method.
pub struct EffectEdge {
    inner: Arc<SimPlatform>,
    /// Every forwarded call: the platform-side effect.
    pub effect: Timer,
    /// The part of `effect` spent driving the simulated crowd.
    pub drain: Timer,
}

impl EffectEdge {
    /// Decorates `inner`.
    pub fn new(inner: Arc<SimPlatform>) -> Self {
        EffectEdge { inner, effect: Timer::default(), drain: Timer::default() }
    }
}

impl CrowdPlatform for EffectEdge {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn create_project(&self, name: &str) -> PResult<ProjectId> {
        self.effect.time(|| self.inner.create_project(name))
    }
    fn project(&self, id: ProjectId) -> PResult<Project> {
        self.effect.time(|| self.inner.project(id))
    }
    fn publish_task(&self, project: ProjectId, spec: TaskSpec) -> PResult<Task> {
        self.effect.time(|| self.inner.publish_task(project, spec))
    }
    fn publish_tasks(&self, project: ProjectId, specs: Vec<TaskSpec>) -> PResult<Vec<Task>> {
        self.effect.time(|| self.inner.publish_tasks(project, specs))
    }
    fn task(&self, id: TaskId) -> PResult<Task> {
        self.effect.time(|| self.inner.task(id))
    }
    fn fetch_runs(&self, task: TaskId) -> PResult<Vec<TaskRun>> {
        self.effect.time(|| self.inner.fetch_runs(task))
    }
    fn fetch_runs_bulk(&self, tasks: &[TaskId]) -> PResult<Vec<Vec<TaskRun>>> {
        self.effect.time(|| self.inner.fetch_runs_bulk(tasks))
    }
    fn is_complete(&self, task: TaskId) -> PResult<bool> {
        self.effect.time(|| self.inner.is_complete(task))
    }
    fn are_complete(&self, tasks: &[TaskId]) -> PResult<Vec<Option<bool>>> {
        self.effect.time(|| self.inner.are_complete(tasks))
    }
    fn step(&self) -> PResult<bool> {
        self.effect.time(|| self.drain.time(|| self.inner.step()))
    }
    fn run_until_complete(&self, tasks: &[TaskId]) -> PResult<()> {
        self.effect.time(|| self.drain.time(|| self.inner.run_until_complete(tasks)))
    }
    fn api_calls(&self) -> u64 {
        self.inner.api_calls()
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
}

/// Which typed table a stored cell belongs to, from its key prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellKind {
    /// `t/manifest/...`
    Manifest,
    /// `t/task/...`
    Task,
    /// `t/result/...`
    Result,
}

impl CellKind {
    fn of(key: &[u8]) -> Option<CellKind> {
        if key.starts_with(b"t/task/") {
            Some(CellKind::Task)
        } else if key.starts_with(b"t/result/") {
            Some(CellKind::Result)
        } else if key.starts_with(b"t/manifest/") {
            Some(CellKind::Manifest)
        } else {
            None
        }
    }
}

/// Database decorator: times reads, writes, and scans, and records every
/// cell value that crosses it.
pub struct StoreEdge {
    inner: Arc<dyn Backend>,
    /// `get` and `contains`.
    pub get: Timer,
    /// `set`, `delete`, and `apply_batch`: one call per durable write.
    pub batch: Timer,
    /// `scan_prefix`.
    pub scan: Timer,
    read_bytes: AtomicU64,
    write_bytes: AtomicU64,
    cells: Mutex<Vec<(CellKind, Vec<u8>)>>,
}

impl StoreEdge {
    /// Decorates `inner`.
    pub fn new(inner: Arc<dyn Backend>) -> Self {
        StoreEdge {
            inner,
            get: Timer::default(),
            batch: Timer::default(),
            scan: Timer::default(),
            read_bytes: AtomicU64::new(0),
            write_bytes: AtomicU64::new(0),
            cells: Mutex::new(Vec::new()),
        }
    }

    /// Value bytes returned by reads and scans.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes.load(Ordering::Relaxed)
    }

    /// Key plus value bytes handed to writes.
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes.load(Ordering::Relaxed)
    }

    /// Takes the recorded cells, in the order they crossed the edge.
    pub fn take_cells(&self) -> Vec<(CellKind, Vec<u8>)> {
        std::mem::take(&mut *self.cells.lock().expect("cell log poisoned"))
    }

    fn record(&self, key: &[u8], value: &[u8]) {
        if let Some(kind) = CellKind::of(key) {
            self.cells.lock().expect("cell log poisoned").push((kind, value.to_vec()));
        }
    }

    fn record_write(&self, key: &[u8], value: &[u8]) {
        self.write_bytes.fetch_add((key.len() + value.len()) as u64, Ordering::Relaxed);
        self.record(key, value);
    }
}

impl Backend for StoreEdge {
    fn set(&self, key: &[u8], value: &[u8]) -> SResult<()> {
        self.record_write(key, value);
        self.batch.time(|| self.inner.set(key, value))
    }
    fn get(&self, key: &[u8]) -> SResult<Option<Vec<u8>>> {
        let out = self.get.time(|| self.inner.get(key))?;
        if let Some(v) = &out {
            self.read_bytes.fetch_add(v.len() as u64, Ordering::Relaxed);
            self.record(key, v);
        }
        Ok(out)
    }
    fn delete(&self, key: &[u8]) -> SResult<()> {
        self.write_bytes.fetch_add(key.len() as u64, Ordering::Relaxed);
        self.batch.time(|| self.inner.delete(key))
    }
    fn scan_prefix(&self, prefix: &[u8]) -> SResult<Vec<(Vec<u8>, Vec<u8>)>> {
        let out = self.scan.time(|| self.inner.scan_prefix(prefix))?;
        for (k, v) in &out {
            self.read_bytes.fetch_add(v.len() as u64, Ordering::Relaxed);
            self.record(k, v);
        }
        Ok(out)
    }
    fn apply_batch(&self, batch: Batch) -> SResult<()> {
        for op in batch.ops() {
            match op {
                Op::Set { key, value } => self.record_write(key, value),
                Op::Delete { key } => {
                    self.write_bytes.fetch_add(key.len() as u64, Ordering::Relaxed);
                }
            }
        }
        self.batch.time(|| self.inner.apply_batch(batch))
    }
    fn contains(&self, key: &[u8]) -> SResult<bool> {
        self.get.time(|| self.inner.contains(key))
    }
    fn flush(&self) -> SResult<()> {
        self.batch.time(|| self.inner.flush())
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}
