//! The discrete-event simulation engine behind [`SimPlatform`].
//!
//! One simulated world — projects, id counters, tasks, runs, the open-task
//! queue, the worker availability heap, the virtual clock, and the RNG —
//! sits behind one lock. The RNG is seeded with the configured seed, so the
//! seed alone is the reproducibility key: the same seed and the same call
//! sequence give a bit-for-bit identical world (pinned by
//! `tests/golden_engine.rs`). Every event runs on the calling thread; the
//! engine spawns none.
//!
//! The matching hot path is O(1) amortized per event:
//!
//! * `open` is an **append-only queue with tombstones**: completing a task
//!   nulls its slot instead of shifting the queue.
//! * `open_head` lazily skips the tombstoned prefix, so the oldest open
//!   task is found without scanning.
//! * each worker keeps a **monotone cursor** into `open`: every slot before
//!   it is *permanently* ineligible for that worker (tombstoned, or already
//!   answered by them), so an eligibility scan resumes where it left off
//!   instead of rescanning the whole open list per event.
//! * task `id` is slot `id - 1` of one `Vec`, and a worker has answered a
//!   task exactly when one of its runs names them. Worker profiles are
//!   indexed up front (a `HashMap` lookup instead of an O(pool) scan).

use crate::error::{Error, Result};
use crate::platform::CrowdPlatform;
use crate::sim::answer::AnswerModel;
use crate::sim::latency::lognormal;
use crate::sim::worker::{WorkerPool, WorkerProfile};
use crate::types::{
    Project, ProjectId, SimTime, Task, TaskId, TaskRun, TaskSpec, TaskStatus, WorkerId,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration of a simulated platform.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The worker roster.
    pub pool: WorkerPool,
    /// RNG seed; with the same seed and call sequence, the simulation is
    /// bit-for-bit reproducible.
    pub seed: u64,
}

impl SimConfig {
    /// A config over `pool`, seeded with `seed`.
    pub fn new(pool: WorkerPool, seed: u64) -> Self {
        SimConfig { pool, seed }
    }
}

/// One published task: only what the platform's own calls read back.
struct TaskSlot {
    project_id: ProjectId,
    n_assignments: u32,
    published_at: SimTime,
    /// Canonical JSON text of the payload.
    payload: Box<str>,
    /// Answer model parsed once at publish time.
    model: Option<AnswerModel>,
    /// Runs, each by a distinct worker; `n_assignments` complete the task.
    runs: Vec<TaskRun>,
}

impl TaskSlot {
    fn completed(&self) -> bool {
        self.runs.len() >= self.n_assignments as usize
    }

    fn answered_by(&self, worker: WorkerId) -> bool {
        self.runs.iter().any(|r| r.worker_id == worker)
    }

    /// The payload as published: the codec reads back what it writes, so
    /// this fails only on a payload nested deeper than its parser accepts.
    fn decode_payload(&self) -> Result<serde_json::Value> {
        serde_json::from_str(&self.payload)
            .map_err(|e| Error::InvalidRequest(format!("stored payload: {e}")))
    }

    fn task(&self, id: TaskId, payload: serde_json::Value) -> Task {
        let TaskSlot { project_id, n_assignments, published_at, .. } = *self;
        let status = if self.completed() { TaskStatus::Completed } else { TaskStatus::Open };
        Task { id, project_id, payload, n_assignments, published_at, status }
    }
}

/// Entry `id - 1` of a table of dense ids from 1 (`None` for 0 or unissued).
fn by_id<T>(table: &[T], id: u64) -> Option<&T> {
    table.get(usize::try_from(id.checked_sub(1)?).ok()?)
}

/// Everything an event or a platform call touches.
struct World {
    /// Created projects, by [`by_id`].
    projects: Vec<Project>,
    /// Published tasks, by [`by_id`].
    tasks: Vec<TaskSlot>,
    /// Open tasks in publish order; completion tombstones the slot.
    open: Vec<Option<TaskId>>,
    /// First possibly-live slot of `open`, advanced lazily past tombstones.
    open_head: usize,
    /// Live (non-tombstoned) entries in `open`.
    open_live: usize,
    /// Workers ready to pick up tasks, keyed by availability time.
    available: BinaryHeap<Reverse<(SimTime, WorkerId)>>,
    /// Workers parked because no eligible task existed when they came up.
    parked: Vec<(WorkerId, SimTime)>,
    /// Per-worker resume point into `open`; monotone, never rewinds.
    cursor: HashMap<WorkerId, usize>,
    /// The roster, indexed for O(1) profile lookup.
    profiles: HashMap<WorkerId, WorkerProfile>,
    /// The virtual clock (simulated milliseconds).
    clock: SimTime,
    rng: StdRng,
    /// Events processed (submitted runs *and* abandonments).
    events: u64,
}

impl World {
    /// An empty world over `workers` (in roster order — their position is
    /// the initial availability stagger).
    fn new(workers: &[WorkerProfile], seed: u64) -> Self {
        World {
            projects: Vec::new(),
            tasks: Vec::new(),
            open: Vec::new(),
            open_head: 0,
            open_live: 0,
            // Tiny stagger so initial pickup order interleaves naturally.
            available: (0..).zip(workers).map(|(at, w)| Reverse((at, w.id))).collect(),
            parked: Vec::new(),
            cursor: HashMap::new(),
            profiles: workers.iter().map(|w| (w.id, w.clone())).collect(),
            clock: 0,
            rng: StdRng::seed_from_u64(seed),
            events: 0,
        }
    }

    /// Allocates the next task id, stamps the task with the current clock,
    /// queues it, and wakes the parked workers (new work may suit them).
    fn place(&mut self, project: ProjectId, spec: TaskSpec) -> Task {
        let id = self.tasks.len() as TaskId + 1;
        let slot = TaskSlot {
            project_id: project,
            n_assignments: spec.n_assignments,
            published_at: self.clock,
            payload: serde::json::to_string(&spec.payload).into_boxed_str(),
            model: AnswerModel::extract(&spec.payload),
            runs: Vec::with_capacity(spec.n_assignments as usize),
        };
        let task = slot.task(id, spec.payload);
        self.tasks.push(slot);
        self.open.push(Some(id));
        self.open_live += 1;
        self.wake_parked();
        task
    }

    /// Re-queues every parked worker (new work may have arrived, or a
    /// completion may have freed up an eligible slot).
    fn wake_parked(&mut self) {
        let clock = self.clock;
        for (w, at) in std::mem::take(&mut self.parked) {
            self.available.push(Reverse((at.max(clock), w)));
        }
    }

    /// How many of `tasks` are still open, failing with
    /// [`Error::UnknownTask`] on ids the platform does not know.
    fn still_open(&self, tasks: &[TaskId]) -> Result<usize> {
        let mut open = 0;
        for &t in tasks {
            let task = by_id(&self.tasks, t).ok_or(Error::UnknownTask(t))?;
            open += usize::from(!task.completed());
        }
        Ok(open)
    }

    /// Processes one event: pops the earliest-available worker, matches
    /// them with the oldest open task they have not answered, and samples
    /// their think-time and answer (or abandonment). Returns `false` when
    /// no further progress is possible.
    fn step(&mut self) -> Result<bool> {
        if self.open_live == 0 {
            return Ok(false);
        }
        // Pop workers until one can be matched with an open task.
        while let Some(Reverse((avail_at, worker_id))) = self.available.pop() {
            // Advance the global head past the tombstoned prefix (paid once
            // per completed task over the world's whole lifetime).
            while self.open.get(self.open_head) == Some(&None) {
                self.open_head += 1;
            }
            // Resume this worker's scan where it permanently left off.
            let mut pos =
                self.cursor.get(&worker_id).copied().unwrap_or(0).max(self.open_head);
            let mut found = None;
            while let Some(&entry) = self.open.get(pos) {
                match entry {
                    Some(tid) if !self.tasks[tid as usize - 1].answered_by(worker_id) => {
                        found = Some((pos, tid));
                        break;
                    }
                    // A tombstone, or a task this worker answered (answered
                    // tasks never reopen): permanently ineligible.
                    _ => pos += 1,
                }
            }
            // `pos` only ever advanced past permanently-ineligible slots
            // (or stopped on the candidate), so the cursor stays sound even
            // if the worker abandons the candidate below.
            self.cursor.insert(worker_id, pos);
            let Some((slot, task_id)) = found else {
                self.parked.push((worker_id, avail_at));
                continue;
            };

            self.clock = self.clock.max(avail_at);
            let assigned_at = self.clock;
            let profile = &self.profiles[&worker_id];
            let think_ms =
                lognormal(&mut self.rng, profile.speed_median_ms.max(1.0), profile.speed_sigma)
                    .ceil()
                    .max(1.0) as SimTime;
            let submitted_at = assigned_at + think_ms;

            let abandons = self.rng.gen::<f64>() < profile.abandon_p;
            self.events += 1;
            if abandons {
                // The worker wastes the time but submits nothing; the slot
                // stays open and the worker may retry later.
                self.available.push(Reverse((submitted_at, worker_id)));
                return Ok(true);
            }

            let task = &mut self.tasks[task_id as usize - 1];
            let answer = match &task.model {
                Some(model) => model.sample(profile, &mut self.rng),
                // Payloads without a model get an opaque echo answer, so
                // plumbing tests don't need to construct models.
                None => serde_json::json!({ "echo": task.decode_payload()? }),
            };
            task.runs.push(TaskRun { task_id, worker_id, answer, assigned_at, submitted_at });
            if task.completed() {
                self.open[slot] = None;
                self.open_live -= 1;
                // Task list changed: parked workers may now have work.
                self.wake_parked();
            }
            self.available.push(Reverse((submitted_at, worker_id)));
            return Ok(true);
        }
        // Every worker is parked: redundancy cannot be met.
        Ok(false)
    }
}

/// The simulated crowdsourcing platform.
pub struct SimPlatform {
    world: Mutex<World>,
    pool: WorkerPool,
    calls: AtomicU64,
}

impl SimPlatform {
    /// Creates a platform with the given worker pool and seed.
    pub fn new(config: SimConfig) -> Self {
        SimPlatform {
            world: Mutex::new(World::new(&config.pool.workers, config.seed)),
            pool: config.pool,
            calls: AtomicU64::new(0),
        }
    }

    /// Convenience constructor: `n` identical workers of `ability`.
    pub fn quick(n_workers: usize, ability: f64, seed: u64) -> Self {
        SimPlatform::new(SimConfig::new(WorkerPool::uniform(n_workers, ability), seed))
    }

    /// The roster this platform simulates.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Total events processed so far (submitted runs and abandonments) —
    /// the E13 throughput metric.
    pub fn events(&self) -> u64 {
        self.world.lock().events
    }

    fn bump(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Validates a spec against the roster before any state is touched.
    fn validate_spec(&self, spec: &TaskSpec) -> Result<()> {
        if spec.n_assignments == 0 {
            return Err(Error::InvalidRequest("n_assignments must be positive".into()));
        }
        if spec.n_assignments as usize > self.pool.len() {
            return Err(Error::InvalidRequest(format!(
                "n_assignments {} exceeds pool size {}",
                spec.n_assignments,
                self.pool.len()
            )));
        }
        Ok(())
    }
}

impl CrowdPlatform for SimPlatform {
    fn name(&self) -> &str {
        "sim"
    }

    fn create_project(&self, name: &str) -> Result<ProjectId> {
        self.bump();
        let mut w = self.world.lock();
        let (id, created_at) = (w.projects.len() as ProjectId + 1, w.clock);
        w.projects.push(Project { id, name: name.to_string(), created_at });
        Ok(id)
    }

    fn project(&self, id: ProjectId) -> Result<Project> {
        by_id(&self.world.lock().projects, id).cloned().ok_or(Error::UnknownProject(id))
    }

    /// One API call, atomic.
    ///
    /// Every spec is validated before any task is registered, so an invalid
    /// spec rejects the whole batch. Registered tasks are identical (ids,
    /// payloads, timestamps) however the specs are split into batches —
    /// only the API-call accounting differs.
    fn publish_tasks(&self, project: ProjectId, specs: Vec<TaskSpec>) -> Result<Vec<Task>> {
        if specs.is_empty() {
            return Ok(Vec::new());
        }
        self.bump();
        for spec in &specs {
            self.validate_spec(spec)?;
        }
        let mut w = self.world.lock();
        if by_id(&w.projects, project).is_none() {
            return Err(Error::UnknownProject(project));
        }
        Ok(specs.into_iter().map(|spec| w.place(project, spec)).collect())
    }

    fn task(&self, id: TaskId) -> Result<Task> {
        self.bump();
        let w = self.world.lock();
        let slot = by_id(&w.tasks, id).ok_or(Error::UnknownTask(id))?;
        Ok(slot.task(id, slot.decode_payload()?))
    }

    /// One API call serving every task from a single consistent snapshot.
    /// An unknown id fails the whole call.
    fn fetch_runs_bulk(&self, tasks: &[TaskId]) -> Result<Vec<Vec<TaskRun>>> {
        if tasks.is_empty() {
            return Ok(Vec::new());
        }
        self.bump();
        let w = self.world.lock();
        let runs = |&t: &TaskId| Ok(by_id(&w.tasks, t).ok_or(Error::UnknownTask(t))?.runs.clone());
        tasks.iter().map(runs).collect()
    }

    /// One consistent snapshot. Status probes are **free** — no API-call
    /// bump — on every in-process platform; see the trait-level contract
    /// on [`is_complete`](CrowdPlatform::is_complete).
    fn are_complete(&self, tasks: &[TaskId]) -> Result<Vec<Option<bool>>> {
        let w = self.world.lock();
        Ok(tasks.iter().map(|&t| by_id(&w.tasks, t).map(TaskSlot::completed)).collect())
    }

    fn step(&self) -> Result<bool> {
        self.world.lock().step()
    }

    /// The workspace's one drain-then-check driver: one completion probe,
    /// the event loop drained to quiescence, one final probe, all under a
    /// single lock acquisition. Draining may progress unlisted open tasks;
    /// already-completed tasks never change. Already-satisfied (or
    /// unknown) task lists return before any simulation runs.
    fn run_until_complete(&self, tasks: &[TaskId]) -> Result<()> {
        let mut w = self.world.lock();
        if w.still_open(tasks)? == 0 {
            return Ok(());
        }
        while w.step()? {}
        let open = w.still_open(tasks)?;
        if open > 0 {
            return Err(Error::Starved(format!(
                "no further progress possible with {open} tasks still open"
            )));
        }
        Ok(())
    }

    fn api_calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn now(&self) -> SimTime {
        self.world.lock().clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn label_spec(truth: usize, n: u32) -> TaskSpec {
        let model = AnswerModel::Label {
            truth,
            labels: vec!["Yes".into(), "No".into()],
            difficulty: 0.0,
        };
        TaskSpec { payload: model.embed(serde_json::json!({"url": "img.jpg"})), n_assignments: n }
    }

    #[test]
    fn completes_tasks_with_redundancy() {
        let p = SimPlatform::quick(5, 1.0, 1);
        let proj = p.create_project("exp").unwrap();
        let t = p.publish_task(proj, label_spec(0, 3)).unwrap();
        p.run_until_complete(&[t.id]).unwrap();
        let runs = p.fetch_runs(t.id).unwrap();
        assert_eq!(runs.len(), 3);
        assert!(runs.iter().all(|r| r.answer == serde_json::json!("Yes")));
    }

    #[test]
    fn distinct_workers_per_task() {
        let p = SimPlatform::quick(4, 0.9, 2);
        let proj = p.create_project("exp").unwrap();
        let t = p.publish_task(proj, label_spec(0, 4)).unwrap();
        p.run_until_complete(&[t.id]).unwrap();
        let runs = p.fetch_runs(t.id).unwrap();
        let workers: HashSet<WorkerId> = runs.iter().map(|r| r.worker_id).collect();
        assert_eq!(workers.len(), 4, "each run from a distinct worker");
    }

    #[test]
    fn redundancy_larger_than_pool_rejected() {
        let p = SimPlatform::quick(2, 0.9, 3);
        let proj = p.create_project("exp").unwrap();
        let err = p.publish_task(proj, label_spec(0, 3)).unwrap_err();
        assert!(matches!(err, Error::InvalidRequest(_)));
    }

    #[test]
    fn zero_assignments_rejected() {
        let p = SimPlatform::quick(2, 0.9, 3);
        let proj = p.create_project("exp").unwrap();
        let err = p.publish_task(proj, label_spec(0, 0)).unwrap_err();
        assert!(matches!(err, Error::InvalidRequest(_)));
    }

    #[test]
    fn unknown_ids_error() {
        let p = SimPlatform::quick(2, 0.9, 3);
        assert_eq!(p.project(9).unwrap_err(), Error::UnknownProject(9));
        assert_eq!(p.task(9).unwrap_err(), Error::UnknownTask(9));
        assert_eq!(p.fetch_runs(9).unwrap_err(), Error::UnknownTask(9));
        assert_eq!(p.publish_task(42, label_spec(0, 1)).unwrap_err(), Error::UnknownProject(42));
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed: u64| {
            let p = SimPlatform::quick(6, 0.8, seed);
            let proj = p.create_project("exp").unwrap();
            let mut ids = Vec::new();
            for i in 0..10 {
                ids.push(p.publish_task(proj, label_spec(i % 2, 3)).unwrap().id);
            }
            p.run_until_complete(&ids).unwrap();
            ids.iter().map(|&t| p.fetch_runs(t).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn timestamps_monotone_and_positive_latency() {
        let p = SimPlatform::quick(3, 0.9, 4);
        let proj = p.create_project("exp").unwrap();
        let t = p.publish_task(proj, label_spec(0, 3)).unwrap();
        p.run_until_complete(&[t.id]).unwrap();
        for r in p.fetch_runs(t.id).unwrap() {
            assert!(r.assigned_at >= t.published_at);
            assert!(r.submitted_at > r.assigned_at);
        }
    }

    #[test]
    fn per_worker_serialization() {
        // One worker answering two tasks must do so at non-overlapping times.
        let p = SimPlatform::quick(1, 0.9, 5);
        let proj = p.create_project("exp").unwrap();
        let t1 = p.publish_task(proj, label_spec(0, 1)).unwrap();
        let t2 = p.publish_task(proj, label_spec(1, 1)).unwrap();
        p.run_until_complete(&[t1.id, t2.id]).unwrap();
        let r1 = &p.fetch_runs(t1.id).unwrap()[0];
        let r2 = &p.fetch_runs(t2.id).unwrap()[0];
        assert!(r2.assigned_at >= r1.submitted_at || r1.assigned_at >= r2.submitted_at);
    }

    #[test]
    fn step_false_when_no_open_tasks() {
        let p = SimPlatform::quick(2, 0.9, 6);
        assert!(!p.step().unwrap());
    }

    #[test]
    fn spammers_answer_at_chance() {
        let p = SimPlatform::quick(1, 0.5, 7);
        let proj = p.create_project("exp").unwrap();
        let mut yes = 0;
        let mut ids = Vec::new();
        for _ in 0..400 {
            ids.push(p.publish_task(proj, label_spec(0, 1)).unwrap().id);
        }
        p.run_until_complete(&ids).unwrap();
        for id in ids {
            if p.fetch_runs(id).unwrap()[0].answer == serde_json::json!("Yes") {
                yes += 1;
            }
        }
        let frac = yes as f64 / 400.0;
        assert!((frac - 0.5).abs() < 0.1, "spammer accuracy {frac}");
    }

    #[test]
    fn abandonment_delays_but_completes() {
        let pool = WorkerPool::new(
            (1..=3u64)
                .map(|id| {
                    let mut w = WorkerProfile::with_ability(id, 0.9);
                    w.abandon_p = 0.4;
                    w
                })
                .collect(),
        );
        let p = SimPlatform::new(SimConfig::new(pool, 8));
        let proj = p.create_project("exp").unwrap();
        let t = p.publish_task(proj, label_spec(0, 3)).unwrap();
        p.run_until_complete(&[t.id]).unwrap();
        assert_eq!(p.fetch_runs(t.id).unwrap().len(), 3);
    }

    #[test]
    fn echo_answer_for_modelless_payload() {
        let p = SimPlatform::quick(1, 0.9, 9);
        let proj = p.create_project("exp").unwrap();
        let t = p
            .publish_task(
                proj,
                TaskSpec { payload: serde_json::json!({"raw": true}), n_assignments: 1 },
            )
            .unwrap();
        p.run_until_complete(&[t.id]).unwrap();
        let run = &p.fetch_runs(t.id).unwrap()[0];
        assert_eq!(run.answer["echo"]["raw"], serde_json::json!(true));
    }

    #[test]
    fn clock_advances_with_work() {
        let p = SimPlatform::quick(2, 0.9, 10);
        let proj = p.create_project("exp").unwrap();
        assert_eq!(p.now(), 0);
        let t = p.publish_task(proj, label_spec(0, 2)).unwrap();
        p.run_until_complete(&[t.id]).unwrap();
        assert!(p.now() > 0);
    }

    #[test]
    fn bulk_publish_matches_sequential_bit_for_bit() {
        // The whole batched-pipeline story rests on this: same seed, same
        // specs — bulk-published tasks complete with identical runs.
        let run = |bulk: bool| {
            let p = SimPlatform::quick(5, 0.8, 77);
            let proj = p.create_project("exp").unwrap();
            let specs: Vec<TaskSpec> = (0..8).map(|i| label_spec(i % 2, 3)).collect();
            let tasks = if bulk {
                p.publish_tasks(proj, specs).unwrap()
            } else {
                specs.into_iter().map(|s| p.publish_task(proj, s).unwrap()).collect()
            };
            let ids: Vec<TaskId> = tasks.iter().map(|t| t.id).collect();
            p.run_until_complete(&ids).unwrap();
            (tasks, p.fetch_runs_bulk(&ids).unwrap())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn bulk_publish_is_one_call_and_atomic() {
        let p = SimPlatform::quick(3, 0.9, 20);
        let proj = p.create_project("exp").unwrap(); // 1 call
        let tasks = p
            .publish_tasks(proj, (0..10).map(|i| label_spec(i % 2, 2)).collect())
            .unwrap(); // 1 call
        assert_eq!(tasks.len(), 10);
        assert_eq!(p.api_calls(), 2);
        // A batch with one bad spec is rejected wholesale: nothing lands.
        let mut specs: Vec<TaskSpec> = (0..3).map(|i| label_spec(i % 2, 2)).collect();
        specs.push(label_spec(0, 99)); // exceeds the 3-worker pool
        assert!(p.publish_tasks(proj, specs).is_err());
        assert_eq!(p.world.lock().tasks.len(), 10, "failed batch must leave no tasks");
        // Empty batches are free.
        assert!(p.publish_tasks(proj, Vec::new()).unwrap().is_empty());
        assert!(p.fetch_runs_bulk(&[]).unwrap().is_empty());
        assert_eq!(p.api_calls(), 3);
    }

    #[test]
    fn bulk_fetch_unknown_id_fails_whole_call() {
        let p = SimPlatform::quick(3, 0.9, 21);
        let proj = p.create_project("exp").unwrap();
        let t = p.publish_task(proj, label_spec(0, 1)).unwrap();
        p.run_until_complete(&[t.id]).unwrap();
        assert!(matches!(
            p.fetch_runs_bulk(&[t.id, 999]).unwrap_err(),
            Error::UnknownTask(999)
        ));
    }

    #[test]
    fn ids_outside_the_dense_range_are_unknown() {
        let p = SimPlatform::quick(2, 0.9, 12);
        let proj = p.create_project("exp").unwrap();
        let t = p.publish_task(proj, label_spec(0, 1)).unwrap();
        let next_task = t.id + 1;
        for id in [0, next_task, u64::MAX] {
            assert_eq!(p.task(id).unwrap_err(), Error::UnknownTask(id));
            assert_eq!(p.fetch_runs_bulk(&[t.id, id]).unwrap_err(), Error::UnknownTask(id));
            assert_eq!(p.are_complete(&[id, t.id]).unwrap(), vec![None, Some(false)]);
        }
        assert_eq!(p.project(0).unwrap_err(), Error::UnknownProject(0));
        assert_eq!(p.project(proj + 1).unwrap_err(), Error::UnknownProject(proj + 1));
    }

    #[test]
    fn task_returns_the_published_payload_exactly() {
        let payloads = [
            serde_json::json!({ "x": 0.1 * 3.0, "tiny": 5e-324, "big": 1.7976931348623157e308 }),
            serde_json::json!({ "text": "naïve café — 東京 🚀", "esc": "a\"b\\c\n\u{1}" }),
            serde_json::json!({ "nested": [[1, [2.5, []]], [{ "k": [null, true] }], -7] }),
            serde_json::json!({}),
            serde_json::json!([0.30000000000000004, "x", { "": {} }]),
            AnswerModel::Fixed { value: serde_json::json!({ "w": 0.7 }) }
                .embed(serde_json::json!({ "q": "ü", "n": -0.0 })),
        ];
        let p = SimPlatform::quick(2, 0.9, 13);
        let proj = p.create_project("exp").unwrap();
        let specs =
            payloads.iter().map(|payload| TaskSpec { payload: payload.clone(), n_assignments: 2 });
        let published = p.publish_tasks(proj, specs.collect()).unwrap();
        let ids: Vec<TaskId> = published.iter().map(|t| t.id).collect();
        for ((task, payload), &id) in published.iter().zip(&payloads).zip(&ids) {
            assert_eq!(&task.payload, payload);
            assert_eq!(p.task(id).unwrap(), *task, "before completion");
        }
        p.run_until_complete(&ids).unwrap();
        for ((task, payload), &id) in published.iter().zip(&payloads).zip(&ids) {
            let done = p.task(id).unwrap();
            assert_eq!(done.status, TaskStatus::Completed);
            // Same bytes, not only equal trees (`-0.0 == 0.0`).
            let text = |v| serde_json::to_string(v).unwrap();
            assert_eq!(text(&done.payload), text(payload));
            assert_eq!(Task { status: TaskStatus::Open, ..done }, *task, "after completion");
        }
        // The echo answer decodes the stored text, too.
        let echo = &p.fetch_runs(ids[3]).unwrap()[0].answer;
        assert_eq!(echo, &serde_json::json!({ "echo": {} }));
        let echo = &p.fetch_runs(ids[0]).unwrap()[0].answer;
        assert_eq!(echo["echo"], payloads[0]);
    }

    #[test]
    fn api_calls_counted() {
        let p = SimPlatform::quick(2, 0.9, 11);
        let proj = p.create_project("exp").unwrap(); // 1
        let t = p.publish_task(proj, label_spec(0, 1)).unwrap(); // 2
        p.run_until_complete(&[t.id]).unwrap(); // steps: free
        let _ = p.fetch_runs(t.id).unwrap(); // 3
        assert_eq!(p.api_calls(), 3);
    }

    /// Publishes `n_tasks` in bulk, drives them to completion, and returns
    /// every task + every run — the whole observable outcome.
    fn world_outcome(
        n_workers: usize,
        n_tasks: usize,
        redundancy: u32,
        seed: u64,
    ) -> (Vec<Task>, Vec<Vec<TaskRun>>) {
        let p = SimPlatform::quick(n_workers, 0.85, seed);
        let proj = p.create_project("world").unwrap();
        let specs: Vec<TaskSpec> =
            (0..n_tasks).map(|i| label_spec(i % 2, redundancy)).collect();
        let tasks = p.publish_tasks(proj, specs).unwrap();
        let ids: Vec<TaskId> = tasks.iter().map(|t| t.id).collect();
        p.run_until_complete(&ids).unwrap();
        let tasks: Vec<Task> = ids.iter().map(|&id| p.task(id).unwrap()).collect();
        (tasks, p.fetch_runs_bulk(&ids).unwrap())
    }

    #[test]
    fn sharded_world_completes_and_reproduces() {
        let (tasks, runs) = world_outcome(24, 40, 2, 99);
        assert!(tasks.iter().all(|t| t.status == TaskStatus::Completed));
        assert!(runs.iter().all(|r| r.len() == 2), "exact redundancy per task");
        // Identical seed => bit-identical world.
        assert_eq!((tasks, runs), world_outcome(24, 40, 2, 99));
    }

    #[test]
    fn step_rotates_but_matches_drain() {
        // Driving via single `step` calls and via `run_until_complete`'s
        // lock-once drain must land in the same final world.
        let world = |drain: bool| {
            let p = SimPlatform::quick(12, 0.85, 31);
            let proj = p.create_project("exp").unwrap();
            let tasks = p
                .publish_tasks(proj, (0..20).map(|i| label_spec(i % 2, 2)).collect())
                .unwrap();
            let ids: Vec<TaskId> = tasks.iter().map(|t| t.id).collect();
            if drain {
                p.run_until_complete(&ids).unwrap();
            } else {
                while p.step().unwrap() {}
            }
            p.fetch_runs_bulk(&ids).unwrap()
        };
        assert_eq!(world(true), world(false));
    }

    #[test]
    fn events_counted_across_shards() {
        let pool = WorkerPool::new(
            (1..=8u64)
                .map(|id| {
                    let mut w = WorkerProfile::with_ability(id, 1.0);
                    w.abandon_p = 0.0;
                    w
                })
                .collect(),
        );
        let p = SimPlatform::new(SimConfig::new(pool, 17));
        let proj = p.create_project("exp").unwrap();
        let tasks = p
            .publish_tasks(proj, (0..10).map(|i| label_spec(i % 2, 2)).collect())
            .unwrap();
        let ids: Vec<TaskId> = tasks.iter().map(|t| t.id).collect();
        assert_eq!(p.events(), 0);
        p.run_until_complete(&ids).unwrap();
        // Perfect workers never abandon: exactly one event per run.
        assert_eq!(p.events(), 20);
    }

    // ---- the event loop's O(1) hot path ----

    fn raw_spec(raw: u64, n: u32) -> TaskSpec {
        TaskSpec { payload: serde_json::json!({ "raw": raw }), n_assignments: n }
    }

    fn world(n_workers: u64) -> World {
        let workers: Vec<_> =
            (1..=n_workers).map(|id| WorkerProfile::with_ability(id, 1.0)).collect();
        World::new(&workers, 7)
    }

    #[test]
    fn completion_tombstones_instead_of_shifting() {
        let mut w = world(3);
        for id in 1..=3 {
            w.place(1, raw_spec(id, 1));
        }
        assert_eq!(w.open_live, 3);
        while w.step().unwrap() {}
        assert_eq!(w.open_live, 0);
        // The queue itself never shrank — completion is O(1).
        assert_eq!(w.open.len(), 3);
        assert!(w.open.iter().all(Option::is_none));
        assert!(w.tasks.iter().all(TaskSlot::completed));
    }

    #[test]
    fn cursors_never_rewind() {
        let mut w = world(2);
        for id in 1..=6 {
            w.place(1, raw_spec(id, 2));
        }
        let mut last: HashMap<WorkerId, usize> = HashMap::new();
        while w.step().unwrap() {
            for (&worker, &c) in &w.cursor {
                assert!(c >= last.get(&worker).copied().unwrap_or(0), "cursor rewound");
                last.insert(worker, c);
            }
        }
        assert_eq!(w.open_live, 0);
    }

    #[test]
    fn empty_world_makes_no_progress() {
        let mut w = world(0);
        assert!(!w.step().unwrap());
        w.place(1, raw_spec(1, 1));
        // A task but no workers: the world stalls rather than panics.
        assert!(!w.step().unwrap());
        assert_eq!(w.events, 0);
    }
}
