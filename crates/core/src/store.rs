//! Persistence layout of an experiment.
//!
//! Three tables live in the [`CrowdContext`](crate::context::CrowdContext)
//! database:
//!
//! * `manifest` — one row per experiment: name, presenter fingerprint,
//!   platform project, redundancy. The version stamp guards shared files
//!   against schema drift.
//! * `task` — one row per published task, keyed by
//!   `<experiment>/<presenter-fingerprint>/<row-content-hash>`. This key is
//!   the whole fault-recovery story: it derives from *what was asked*, not
//!   from when or in which order. A row holds its cell as a [`TaskCell`]:
//!   the stored bytes and a two-field header.
//! * `result` — the collected task runs, same key.
//!
//! Only these hit the database; derived columns are recomputed, matching
//! the paper ("the other columns ... can be easily recovered through
//! re-computation").

use crate::error::Result;
use crate::value::Value;
use reprowd_platform::types::{Task, TaskId, TaskRun};
use reprowd_storage::{Backend, Table};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Schema version stamped into manifests.
pub const SCHEMA_VERSION: u32 = 1;

/// Experiment-level metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Experiment name (the `crowddata("...")` argument).
    pub name: String,
    /// Schema version of the stored rows.
    pub version: u32,
    /// Fingerprint of the presenter the cached tasks were published under.
    pub presenter_fingerprint: Option<String>,
    /// Platform project the tasks live in (advisory: a fresh platform
    /// instance may not know it; `publish` revalidates).
    pub project_id: Option<u64>,
    /// Redundancy used at publish time.
    pub n_assignments: Option<u32>,
}

impl Manifest {
    /// A fresh manifest for `name`.
    pub fn new(name: &str) -> Self {
        Manifest {
            name: name.to_string(),
            version: SCHEMA_VERSION,
            presenter_fingerprint: None,
            project_id: None,
            n_assignments: None,
        }
    }
}

/// The persisted `task` cell of one row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredTask {
    /// The platform's task record (id, payload, publish time, ...).
    pub task: Task,
    /// The row's object, kept alongside for lineage and re-publication.
    pub object: Value,
    /// Redundancy requested for this task.
    pub n_assignments: u32,
}

/// A row's `task` cell as the row holds it: the cell's stored bytes, and
/// the header the chunk lifecycle runs on — the platform task id and the
/// cell's redundancy.
///
/// * **Decoded eagerly: the header only.** The cache leg reads it with a
///   typed reader that checks the rest of the cell as JSON but builds none
///   of it, and the publish leg encodes a fresh cell as soon as the
///   platform returns its task, then drops the tree. Either way the row
///   keeps the exact stored bytes, so a commit writes them back unchanged.
/// * **Decoded on first read: the rest.** [`decode`](TaskCell::decode)
///   builds the full [`StoredTask`] (payload, object, publish time,
///   status) for the readers that want it — lineage, the `task` column,
///   `export_json` — and keeps nothing.
/// * **A damaged body.** A cell that is valid JSON with a good header but
///   a bad body (say, an unknown status) passes the cache leg, so a rerun
///   reuses its task with zero crowd calls; each reader then gets a codec
///   `Err` from `decode`. A cell that is not JSON at all, or lacks the
///   header, fails the cache leg.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskCell {
    id: TaskId,
    n_assignments: u32,
    bytes: Box<[u8]>,
}

/// The part of a stored task cell [`TaskCell::from_bytes`] builds; the
/// pull parser checks and skips every other key.
#[derive(Deserialize)]
struct Header {
    task: TaskHeader,
    n_assignments: u32,
}

#[derive(Deserialize)]
struct TaskHeader {
    id: TaskId,
}

impl TaskCell {
    /// Encodes `cell` exactly as the task table stores it.
    pub fn encode(cell: &StoredTask) -> Self {
        TaskCell {
            id: cell.task.id,
            n_assignments: cell.n_assignments,
            bytes: serde::json::to_vec(cell).into_boxed_slice(),
        }
    }

    /// Keeps a stored cell's `bytes`, reading only its header.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
        let Header { task, n_assignments } =
            serde_json::from_slice(&bytes).map_err(reprowd_storage::Error::from)?;
        Ok(TaskCell { id: task.id, n_assignments, bytes: bytes.into_boxed_slice() })
    }

    /// The platform's id for the task.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Redundancy requested for the task.
    pub fn n_assignments(&self) -> u32 {
        self.n_assignments
    }

    /// The cell's stored bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Decodes the whole cell; a body that is not a task is a codec error,
    /// as the table layer reports one.
    pub fn decode(&self) -> Result<StoredTask> {
        Ok(serde_json::from_slice(&self.bytes).map_err(reprowd_storage::Error::from)?)
    }
}

/// The persisted `result` cell of one row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredResult {
    /// All task runs, in submission order.
    pub runs: Vec<TaskRun>,
}

/// Handles to the three tables.
pub struct ExperimentStore {
    /// Experiment manifests by name.
    pub manifests: Table<Manifest>,
    /// Task cells by cache key.
    pub tasks: Table<StoredTask>,
    /// Result cells by cache key.
    pub results: Table<StoredResult>,
}

impl ExperimentStore {
    /// Binds the tables onto `backend`.
    pub fn open(backend: Arc<dyn Backend>) -> Result<Self> {
        Ok(ExperimentStore {
            manifests: Table::new(Arc::clone(&backend), "manifest")?,
            tasks: Table::new(Arc::clone(&backend), "task")?,
            results: Table::new(backend, "result")?,
        })
    }

    /// The cache-key prefix of every row of an experiment, under any
    /// presenter. Experiment names hold no '/', so it matches that
    /// experiment only.
    pub fn experiment_prefix(experiment: &str) -> String {
        format!("{experiment}/")
    }

    /// Full cache key for a row.
    pub fn row_key(experiment: &str, presenter_fp: &str, row_hash: &str) -> String {
        format!("{experiment}/{presenter_fp}/{row_hash}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::val;
    use reprowd_platform::types::TaskStatus;
    use reprowd_storage::MemoryStore;

    fn store() -> ExperimentStore {
        ExperimentStore::open(Arc::new(MemoryStore::new())).unwrap()
    }

    fn task(id: u64) -> StoredTask {
        StoredTask {
            task: Task {
                id,
                project_id: 1,
                payload: val!({"q": id}),
                n_assignments: 3,
                published_at: 7,
                status: TaskStatus::Open,
            },
            object: val!({"q": id}),
            n_assignments: 3,
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let s = store();
        let mut m = Manifest::new("exp1");
        m.project_id = Some(9);
        s.manifests.put(b"exp1", &m).unwrap();
        assert_eq!(s.manifests.get(b"exp1").unwrap(), Some(m));
        assert_eq!(s.manifests.get(b"exp2").unwrap(), None);
    }

    #[test]
    fn task_keyed_by_content() {
        let s = store();
        let key = ExperimentStore::row_key("exp1", "fp", "abc123");
        s.tasks.put(key.as_bytes(), &task(5)).unwrap();
        assert!(s.tasks.get(key.as_bytes()).unwrap().is_some());
        // Different presenter fingerprint = different key space.
        let other = ExperimentStore::row_key("exp1", "fp2", "abc123");
        assert!(s.tasks.get(other.as_bytes()).unwrap().is_none());
    }

    #[test]
    fn task_cell_header_is_checked_body_is_not() {
        let good = serde_json::to_string(&task(5)).unwrap();
        let bogus = good.replace("\"Open\"", "\"Bogus\"");
        let cell = TaskCell::from_bytes(bogus.into_bytes()).unwrap();
        assert_eq!((cell.id(), cell.n_assignments()), (5, 3));
        assert!(matches!(cell.decode(), Err(Error::Storage(reprowd_storage::Error::Codec(_)))));
        for bad in [&good[..good.len() - 1], r#"{"n_assignments":3}"#, r#"{"task":{"id":-1}}"#] {
            let e = TaskCell::from_bytes(bad.as_bytes().to_vec()).unwrap_err();
            assert!(matches!(e, Error::Storage(reprowd_storage::Error::Codec(_))), "{bad}: {e}");
        }
    }

    #[test]
    fn prefix_scan_isolates_experiments() {
        let s = store();
        for (exp, h) in [("a", "1"), ("a", "2"), ("b", "1")] {
            let key = ExperimentStore::row_key(exp, "fp", h);
            s.tasks.put(key.as_bytes(), &task(1)).unwrap();
        }
        let prefix = ExperimentStore::experiment_prefix("a");
        let hits = s.tasks.scan_prefix(prefix.as_bytes()).unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn result_roundtrip() {
        let s = store();
        let r = StoredResult {
            runs: vec![TaskRun {
                task_id: 5,
                worker_id: 2,
                answer: val!("Yes"),
                assigned_at: 1,
                submitted_at: 2,
            }],
        };
        s.results.put(b"k", &r).unwrap();
        assert_eq!(s.results.get(b"k").unwrap(), Some(r));
    }
}
