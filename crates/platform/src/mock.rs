//! A scriptable in-memory platform for unit tests.
//!
//! [`MockPlatform`] completes tasks on [`step`](crate::CrowdPlatform::step)
//! using a configurable answer function, so client-library tests can
//! exercise publish/collect logic without the full simulator.

use crate::error::{Error, Result};
use crate::platform::CrowdPlatform;
use crate::types::{Project, ProjectId, SimTime, Task, TaskId, TaskRun, TaskSpec, TaskStatus};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Produces the `k`-th worker's answer for a task payload.
pub type AnswerFn = Box<dyn Fn(&serde_json::Value, u32) -> serde_json::Value + Send + Sync>;

struct MockState {
    projects: HashMap<ProjectId, Project>,
    tasks: HashMap<TaskId, Task>,
    runs: HashMap<TaskId, Vec<TaskRun>>,
    pending: Vec<TaskId>,
    next_project: ProjectId,
    next_task: TaskId,
    clock: SimTime,
}

/// Scriptable platform: each `step` completes one pending task by asking
/// the answer function for each of its `n_assignments` answers.
pub struct MockPlatform {
    state: Mutex<MockState>,
    answer_fn: AnswerFn,
    calls: AtomicU64,
}

impl MockPlatform {
    /// Builds a mock whose workers answer with `answer_fn(payload, k)`.
    pub fn new(answer_fn: AnswerFn) -> Self {
        MockPlatform {
            state: Mutex::new(MockState {
                projects: HashMap::new(),
                tasks: HashMap::new(),
                runs: HashMap::new(),
                pending: Vec::new(),
                next_project: 1,
                next_task: 1,
                clock: 0,
            }),
            answer_fn,
            calls: AtomicU64::new(0),
        }
    }

    /// A mock whose workers echo the task payload back as the answer.
    pub fn echo() -> Self {
        MockPlatform::new(Box::new(|payload, _k| payload.clone()))
    }

    /// A mock whose workers answer a constant value.
    pub fn constant(answer: serde_json::Value) -> Self {
        MockPlatform::new(Box::new(move |_payload, _k| answer.clone()))
    }

    fn bump(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

impl CrowdPlatform for MockPlatform {
    fn name(&self) -> &str {
        "mock"
    }

    fn create_project(&self, name: &str) -> Result<ProjectId> {
        self.bump();
        let mut s = self.state.lock();
        let id = s.next_project;
        s.next_project += 1;
        let created_at = s.clock;
        s.projects.insert(id, Project { id, name: name.to_string(), created_at });
        Ok(id)
    }

    fn project(&self, id: ProjectId) -> Result<Project> {
        self.state.lock().projects.get(&id).cloned().ok_or(Error::UnknownProject(id))
    }

    /// One API call, atomic. Specs are validated up front, then
    /// registered one clock tick each, so results are bit-identical across
    /// batch sizes.
    fn publish_tasks(&self, project: ProjectId, specs: Vec<TaskSpec>) -> Result<Vec<Task>> {
        if specs.is_empty() {
            return Ok(Vec::new());
        }
        self.bump();
        if specs.iter().any(|s| s.n_assignments == 0) {
            return Err(Error::InvalidRequest("n_assignments must be positive".into()));
        }
        let mut s = self.state.lock();
        if !s.projects.contains_key(&project) {
            return Err(Error::UnknownProject(project));
        }
        let mut out = Vec::with_capacity(specs.len());
        for spec in specs {
            let id = s.next_task;
            s.next_task += 1;
            s.clock += 1;
            let task = Task {
                id,
                project_id: project,
                payload: spec.payload,
                n_assignments: spec.n_assignments,
                published_at: s.clock,
                status: TaskStatus::Open,
            };
            s.tasks.insert(id, task.clone());
            s.runs.insert(id, Vec::new());
            s.pending.push(id);
            out.push(task);
        }
        Ok(out)
    }

    fn task(&self, id: TaskId) -> Result<Task> {
        self.bump();
        self.state.lock().tasks.get(&id).cloned().ok_or(Error::UnknownTask(id))
    }

    /// One API call, one consistent snapshot; an unknown id fails the
    /// whole call.
    fn fetch_runs_bulk(&self, tasks: &[TaskId]) -> Result<Vec<Vec<TaskRun>>> {
        if tasks.is_empty() {
            return Ok(Vec::new());
        }
        self.bump();
        let s = self.state.lock();
        tasks
            .iter()
            .map(|&t| s.runs.get(&t).cloned().ok_or(Error::UnknownTask(t)))
            .collect()
    }

    /// One lock acquisition, one snapshot.
    fn are_complete(&self, tasks: &[TaskId]) -> Result<Vec<Option<bool>>> {
        let s = self.state.lock();
        Ok(tasks
            .iter()
            .map(|t| s.tasks.get(t).map(|task| task.status == TaskStatus::Completed))
            .collect())
    }

    fn step(&self) -> Result<bool> {
        let mut s = self.state.lock();
        let Some(task_id) = s.pending.first().copied() else {
            return Ok(false);
        };
        s.pending.remove(0);
        let task = s.tasks.get(&task_id).cloned().ok_or(Error::UnknownTask(task_id))?;
        for k in 0..task.n_assignments {
            s.clock += 1;
            let answer = (self.answer_fn)(&task.payload, k);
            let assigned_at = s.clock;
            s.clock += 1;
            let submitted_at = s.clock;
            s.runs.get_mut(&task_id).expect("runs vec exists").push(TaskRun {
                task_id,
                // Mock workers are numbered deterministically per assignment
                // slot; enough for lineage tests.
                worker_id: 1000 + k as u64,
                answer,
                assigned_at,
                submitted_at,
            });
        }
        s.tasks.get_mut(&task_id).expect("task exists").status = TaskStatus::Completed;
        Ok(true)
    }

    fn api_calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn now(&self) -> SimTime {
        self.state.lock().clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_answers_payload() {
        let p = MockPlatform::echo();
        let proj = p.create_project("exp").unwrap();
        let t = p
            .publish_task(proj, TaskSpec { payload: serde_json::json!("img1"), n_assignments: 3 })
            .unwrap();
        assert!(p.step().unwrap());
        let runs = p.fetch_runs(t.id).unwrap();
        assert_eq!(runs.len(), 3);
        assert!(runs.iter().all(|r| r.answer == serde_json::json!("img1")));
        // Distinct mock workers per slot.
        let workers: std::collections::HashSet<u64> = runs.iter().map(|r| r.worker_id).collect();
        assert_eq!(workers.len(), 3);
    }

    #[test]
    fn api_call_accounting() {
        let p = MockPlatform::echo();
        assert_eq!(p.api_calls(), 0);
        let proj = p.create_project("exp").unwrap(); // 1
        let t = p
            .publish_task(proj, TaskSpec { payload: serde_json::json!(1), n_assignments: 1 })
            .unwrap(); // 2
        let _ = p.task(t.id).unwrap(); // 3
        let _ = p.fetch_runs(t.id).unwrap(); // 4
        p.step().unwrap(); // not an API call
        assert_eq!(p.api_calls(), 4);
    }

    #[test]
    fn unknown_ids_error() {
        let p = MockPlatform::echo();
        assert_eq!(p.project(9).unwrap_err(), Error::UnknownProject(9));
        assert_eq!(p.task(9).unwrap_err(), Error::UnknownTask(9));
        assert_eq!(p.fetch_runs(9).unwrap_err(), Error::UnknownTask(9));
        let err = p
            .publish_task(42, TaskSpec { payload: serde_json::json!(1), n_assignments: 1 })
            .unwrap_err();
        assert_eq!(err, Error::UnknownProject(42));
    }

    #[test]
    fn zero_assignments_rejected() {
        let p = MockPlatform::echo();
        let proj = p.create_project("exp").unwrap();
        let err = p
            .publish_task(proj, TaskSpec { payload: serde_json::json!(1), n_assignments: 0 })
            .unwrap_err();
        assert!(matches!(err, Error::InvalidRequest(_)));
    }

    #[test]
    fn step_returns_false_when_idle() {
        let p = MockPlatform::echo();
        assert!(!p.step().unwrap());
    }

    #[test]
    fn timestamps_are_monotone() {
        let p = MockPlatform::echo();
        let proj = p.create_project("exp").unwrap();
        let t = p
            .publish_task(proj, TaskSpec { payload: serde_json::json!(1), n_assignments: 2 })
            .unwrap();
        p.step().unwrap();
        let runs = p.fetch_runs(t.id).unwrap();
        for r in &runs {
            assert!(t.published_at <= r.assigned_at);
            assert!(r.assigned_at < r.submitted_at);
        }
    }

    #[test]
    fn constant_mock() {
        let p = MockPlatform::constant(serde_json::json!("Yes"));
        let proj = p.create_project("exp").unwrap();
        let t = p
            .publish_task(proj, TaskSpec { payload: serde_json::json!("img"), n_assignments: 2 })
            .unwrap();
        p.run_until_complete(&[t.id]).unwrap();
        assert!(p.fetch_runs(t.id).unwrap().iter().all(|r| r.answer == serde_json::json!("Yes")));
    }
}
