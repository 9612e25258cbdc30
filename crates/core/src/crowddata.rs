//! CrowdData — the paper's central abstraction.
//!
//! "A key insight in designing Reprowd is to model a list of steps for
//! doing a crowdsourcing experiment as a sequence of manipulations of a
//! tabular dataset called CrowdData." Each step appends a column:
//!
//! | step | call | column | persisted? |
//! |------|------|--------|------------|
//! | 1. input data        | [`data`](CrowdData::data)             | `object` | no (recomputable) |
//! | 2. choose UI         | [`presenter`](CrowdData::presenter)   | —        | fingerprint in manifest |
//! | 3. publish tasks     | [`publish`](CrowdData::publish)       | `task`   | **yes** |
//! | 4. get results       | [`collect`](CrowdData::collect)       | `result` | **yes** |
//! | 5. quality control   | [`majority_vote`](CrowdData::majority_vote) etc. | `mv`/`em`/`ds` | no (recomputed) |
//!
//! The persisted columns are keyed by *content* — experiment name,
//! presenter fingerprint, row object hash — so any rerun (same machine
//! after a crash, or another researcher with the shared database file)
//! reuses exactly the still-valid crowd work and issues platform calls only
//! for genuinely new rows. [`RunStats`] exposes the reuse accounting the
//! experiments report.

use crate::context::CrowdContext;
use crate::error::{Error, Result};
use crate::hash::RowKeyer;
use crate::pipeline::{Lane, Lifecycle};
use crate::presenter::Presenter;
use crate::store::{ExperimentStore, Manifest, StoredResult, TaskCell};
use crate::value::{canonical, Value};
use reprowd_quality::{
    majority_vote_matrix, weighted_majority_vote_matrix, DawidSkene, DsConfig, OneCoin,
    OneCoinConfig, TiePolicy, VoteMatrix, WorkerId,
};
use std::collections::HashMap;

/// One row of a CrowdData table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Position in the table.
    pub index: usize,
    /// Content hash of the object (hex), suffixed `-k` for the k-th
    /// duplicate occurrence. The row part of the cache key.
    pub hash: String,
    /// The input object (paper: the `object` column).
    pub object: Value,
    /// The published task, once step 3 ran for this row: the cell's stored
    /// bytes, with only its header (task id, redundancy) decoded. The rest
    /// is decoded by each read — [`lineage`](CrowdData::lineage), the
    /// `task` [`column`](CrowdData::column), [`export_json`](CrowdData::export_json)
    /// — and a damaged body surfaces there as a codec `Err`. See
    /// [`TaskCell`].
    pub task: Option<TaskCell>,
    /// The collected runs, once step 4 ran for this row.
    pub result: Option<StoredResult>,
    /// Derived (recomputed, non-persisted) cells by column name.
    pub derived: serde_json::Map,
}

/// Cache-reuse accounting for the current CrowdData instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Tasks actually published to the platform by this instance.
    pub tasks_published: u64,
    /// Rows whose task cell came from the database.
    pub tasks_reused: u64,
    /// Result cells fetched from the platform by this instance.
    pub results_collected: u64,
    /// Rows whose result cell came from the database.
    pub results_reused: u64,
    /// Tasks re-published because the platform lost them (fresh platform
    /// instance after a crash of the *platform*, not the client).
    pub tasks_republished: u64,
}

impl RunStats {
    /// Folds another run's accounting into this one, field by field —
    /// every counter, including ones added later. Multi-round operators
    /// (e.g. categorize's escalation round) use this instead of
    /// hand-summing fields, which silently dropped any counter the sum
    /// didn't know about.
    pub fn merge(&mut self, other: RunStats) {
        let RunStats {
            tasks_published,
            tasks_reused,
            results_collected,
            results_reused,
            tasks_republished,
        } = other;
        self.tasks_published += tasks_published;
        self.tasks_reused += tasks_reused;
        self.results_collected += results_collected;
        self.results_reused += results_reused;
        self.tasks_republished += tasks_republished;
    }
}

impl std::ops::AddAssign for RunStats {
    fn add_assign(&mut self, other: RunStats) {
        self.merge(other);
    }
}

/// The tabular experiment. See the module docs for the step/column mapping.
pub struct CrowdData {
    ctx: CrowdContext,
    manifest: Manifest,
    rows: Vec<Row>,
    /// Keys the rows `data`/`extend_data` add, continuing the duplicate
    /// count of the rows already present.
    keyer: RowKeyer,
    /// Whether `data`/`extend_data` ran (an *empty* dataset is legal and
    /// distinct from "step 1 never happened").
    data_set: bool,
    presenter: Option<Presenter>,
    stats: RunStats,
}

impl CrowdData {
    /// Resumes (or starts) an experiment from its manifest. Internal — use
    /// [`CrowdContext::crowddata`].
    pub(crate) fn resume(ctx: CrowdContext, manifest: Manifest) -> Self {
        CrowdData {
            ctx,
            manifest,
            rows: Vec::new(),
            keyer: RowKeyer::default(),
            data_set: false,
            presenter: None,
            stats: RunStats::default(),
        }
    }

    // ---------------------------------------------------------- step 1

    /// Step 1: sets the input objects. Replaces any previously set rows.
    ///
    /// Duplicate objects are legal; each occurrence becomes its own row
    /// (and its own task) with a stable `-k` suffix on the content hash.
    pub fn data(mut self, objects: Vec<Value>) -> Result<Self> {
        self.rows.clear();
        self.keyer = RowKeyer::default();
        self.extend_data(objects)
    }

    /// Appends objects to the existing rows (Ally's Figure 3 move: extend
    /// the experiment; only the new rows will be crowdsourced).
    pub fn extend_data(mut self, objects: Vec<Value>) -> Result<Self> {
        self.data_set = true;
        self.rows.reserve(objects.len());
        for object in objects {
            let hash = self.keyer.key(&object);
            self.rows.push(Row {
                index: self.rows.len(),
                hash,
                object,
                task: None,
                result: None,
                derived: serde_json::Map::new(),
            });
        }
        Ok(self)
    }

    // ---------------------------------------------------------- step 2

    /// Step 2: chooses the task UI. The presenter's fingerprint becomes
    /// part of every cache key: changing the question or the label set
    /// invalidates exactly the cells collected under the old UI.
    pub fn presenter(mut self, presenter: Presenter) -> Result<Self> {
        let fp = presenter.fingerprint();
        if self.manifest.presenter_fingerprint.as_deref() != Some(fp.as_str()) {
            self.manifest.presenter_fingerprint = Some(fp);
            self.save_manifest()?;
        }
        self.presenter = Some(presenter);
        Ok(self)
    }

    // ---------------------------------------------------------- step 3

    /// Step 3: publishes one task per row that does not already have a
    /// cached task cell, each asking for `n_assignments` distinct workers.
    ///
    /// Cache-missing rows are published in batches of the context's
    /// [`batch_size`](crate::CrowdContext::batch_size): each batch is one
    /// bulk platform round-trip
    /// ([`publish_tasks`](reprowd_platform::CrowdPlatform::publish_tasks))
    /// followed by one atomic database write, and is recorded in the
    /// context's [`BatchMetrics`](crate::exec::BatchMetrics). Up to
    /// [`inflight_batches`](crate::exec::ExecutionConfig::inflight_batches)
    /// batch round-trips are kept in flight at once by the pipelined
    /// engine ([`crate::pipeline`]); the platform still observes them
    /// strictly in batch order, and each batch commits to the database on
    /// the worker that ran it, strictly in batch order. Neither knob changes what gets published — ids,
    /// payloads, and collected answers are bit-identical for every batch
    /// size and every in-flight depth; batch size 1 reproduces the
    /// historical per-row pipeline exactly, API-call counts included.
    ///
    /// Crash safety: batches commit (all-or-nothing each) in order, so a
    /// crash mid-`publish` leaves a clean batch prefix in the database and
    /// repays at most the batches past the commit frontier — each worker
    /// commits its batch before it claims another, so at most
    /// `inflight_batches` batches are ever past it — on rerun; cached
    /// batches replay from the database with zero platform traffic. (If
    /// the process dies between the platform accepting a batch and the
    /// local write, the rerun publishes duplicate tasks for that window —
    /// the same exposure the original system has against PyBossa, bounded
    /// by `batch_size × inflight_batches` rows; the stale tasks are simply
    /// never collected.)
    pub fn publish(mut self, n_assignments: u32) -> Result<Self> {
        if !self.data_set {
            return Err(Error::State("publish before data: call data(...) first".into()));
        }
        let presenter = self
            .presenter
            .clone()
            .ok_or_else(|| Error::State("publish before presenter: choose a UI first".into()))?;
        if n_assignments == 0 {
            return Err(Error::State("n_assignments must be positive".into()));
        }
        if self.manifest.n_assignments != Some(n_assignments) {
            self.manifest.n_assignments = Some(n_assignments);
            self.save_manifest()?;
        }
        let lanes = self.lanes(&presenter, n_assignments, |row| row.task.is_none());
        let lanes = Lifecycle::new(&self.ctx, &presenter, &mut self.manifest)
            .classic_publish(lanes, &mut self.stats)?;
        self.restore(lanes);
        Ok(self)
    }

    // ---------------------------------------------------------- step 4

    /// Step 4: collects results. Rows with a cached result cell are served
    /// from the database (zero platform traffic); for the rest, the
    /// platform is driven until their tasks complete and the runs are
    /// fetched in batches of the context's
    /// [`batch_size`](crate::CrowdContext::batch_size) — one bulk
    /// round-trip
    /// ([`fetch_runs_bulk`](reprowd_platform::CrowdPlatform::fetch_runs_bulk))
    /// plus one atomic database write per batch, recorded in the context's
    /// [`BatchMetrics`](crate::exec::BatchMetrics).
    ///
    /// Crash safety mirrors [`publish`](CrowdData::publish): results land
    /// in the database batch by batch, in order, so a crash mid-`collect`
    /// re-fetches on rerun at most the batches past the commit frontier —
    /// up to `inflight_batches` of them, the same window `publish`
    /// documents (the crowd work itself is never redone — the tasks stay
    /// collected on the platform).
    ///
    /// Completion is probed in bulk too
    /// ([`are_complete`](reprowd_platform::CrowdPlatform::are_complete),
    /// one probe per batch), so no stage of `collect` scales its platform
    /// round-trips linearly in rows. If the platform no longer knows a
    /// published task (the platform itself restarted — distinct from a
    /// client crash), the task is transparently re-published (also in
    /// batches) and counted in [`RunStats::tasks_republished`]. So is every
    /// task when the platform no longer knows the recorded project under
    /// this experiment's name: a restarted platform may have given its id
    /// to another experiment.
    pub fn collect(mut self) -> Result<Self> {
        let presenter = self
            .presenter
            .clone()
            .ok_or_else(|| Error::State("collect before presenter".into()))?;
        // Lanes publish only to replace a task the platform lost, under
        // the lost cell's own redundancy, so they need none of their own.
        let lanes = self.lanes(&presenter, 0, |row| row.result.is_none());
        let lanes = Lifecycle::new(&self.ctx, &presenter, &mut self.manifest)
            .classic_collect(lanes, &mut self.stats)?;
        self.restore(lanes);
        Ok(self)
    }

    /// Moves the rows `pick` selects into lanes of the chunk lifecycle
    /// (objects and cells move, nothing is cloned); `restore` moves them
    /// back.
    fn lanes(
        &mut self,
        presenter: &Presenter,
        redundancy: u32,
        pick: impl Fn(&Row) -> bool,
    ) -> Vec<Lane> {
        let fp = presenter.fingerprint();
        let name = &self.manifest.name;
        self.rows
            .iter_mut()
            .filter(|row| pick(row))
            .map(|row| {
                let key = ExperimentStore::row_key(name, &fp, &row.hash);
                let mut lane =
                    Lane::new(row.index, key, std::mem::take(&mut row.object), redundancy);
                lane.task = row.task.take();
                lane.result = row.result.take();
                lane
            })
            .collect()
    }

    fn restore(&mut self, lanes: Vec<Lane>) {
        for lane in lanes {
            let row = &mut self.rows[lane.index];
            row.object = lane.object;
            row.task = lane.task;
            row.result = lane.result;
        }
    }

    // ---------------------------------------------------------- step 5

    /// The answer space of this experiment: the values votes are mapped
    /// onto, in canonical order. Fixed by the presenter where possible so
    /// tie-breaking is stable across runs.
    pub fn answer_space(&self) -> Result<Vec<Value>> {
        let presenter =
            self.presenter.as_ref().ok_or_else(|| Error::State("no presenter set".into()))?;
        if let Some(space) = presenter.static_answer_space() {
            return Ok(space);
        }
        // Free text: the space is whatever the crowd answered.
        let mut distinct: Vec<Value> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for row in &self.rows {
            if let Some(res) = &row.result {
                for run in &res.runs {
                    if seen.insert(canonical(&run.answer)) {
                        distinct.push(run.answer.clone());
                    }
                }
            }
        }
        distinct.sort_by_key(canonical);
        Ok(distinct)
    }

    /// Bridges the `result` column into a [`VoteMatrix`] over
    /// [`answer_space`](CrowdData::answer_space). Answers outside the space
    /// (malformed crowd input) are dropped, mirroring how the original
    /// system tolerates junk submissions.
    pub fn vote_matrix(&self) -> Result<(VoteMatrix, Vec<Value>)> {
        let space = self.answer_space()?;
        let index: HashMap<String, usize> =
            space.iter().enumerate().map(|(i, v)| (canonical(v), i)).collect();
        let mut matrix = VoteMatrix::new(space.len().max(1), self.rows.len());
        for (i, row) in self.rows.iter().enumerate() {
            if let Some(res) = &row.result {
                for run in &res.runs {
                    if let Some(&label) = index.get(&canonical(&run.answer)) {
                        matrix.push_vote(i, run.worker_id, label);
                    }
                }
            }
        }
        Ok((matrix, space))
    }

    /// Step 5 (paper default): majority vote into the derived column `mv`.
    /// Ties break toward the earlier label of the answer space; unanswered
    /// rows get `null`.
    pub fn majority_vote(self) -> Result<Self> {
        let (matrix, space) = self.vote_matrix()?;
        let labels = majority_vote_matrix(&matrix, TiePolicy::LowestLabel);
        self.set_label_column("mv", &labels, &space)
    }

    /// One-coin EM aggregation into the derived column `em`.
    pub fn em_vote(self, config: &OneCoinConfig) -> Result<Self> {
        let (matrix, space) = self.vote_matrix()?;
        let model = OneCoin::fit(&matrix, config);
        let labels = model.labels(&matrix);
        self.set_label_column("em", &labels, &space)
    }

    /// Dawid–Skene aggregation into the derived column `ds`.
    pub fn dawid_skene(self, config: &DsConfig) -> Result<Self> {
        let (matrix, space) = self.vote_matrix()?;
        let model = DawidSkene::fit(&matrix, config);
        let labels = model.labels(&matrix);
        self.set_label_column("ds", &labels, &space)
    }

    /// Weighted majority vote into the derived column `wmv`.
    pub fn weighted_vote(
        self,
        weights: &HashMap<WorkerId, f64>,
        default_weight: f64,
    ) -> Result<Self> {
        let (matrix, space) = self.vote_matrix()?;
        let labels =
            weighted_majority_vote_matrix(&matrix, weights, default_weight, TiePolicy::LowestLabel);
        self.set_label_column("wmv", &labels, &space)
    }

    fn set_label_column(
        mut self,
        name: &str,
        labels: &[Option<usize>],
        space: &[Value],
    ) -> Result<Self> {
        for (row, label) in self.rows.iter_mut().zip(labels) {
            let cell = match label {
                Some(l) => space.get(*l).cloned().unwrap_or(Value::Null),
                None => Value::Null,
            };
            row.derived.insert(name.to_string(), cell);
        }
        Ok(self)
    }

    /// Adds a derived column computed by a pure function of each row.
    /// Like all derived columns it is *not* persisted — rerunning the
    /// program recomputes it, per the paper's recovery model.
    pub fn map(mut self, column: &str, f: impl Fn(&Row) -> Value) -> Result<Self> {
        if matches!(column, "object" | "task" | "result") {
            return Err(Error::State(format!("column name {column:?} is reserved")));
        }
        for row in self.rows.iter_mut() {
            let cell = f(row);
            row.derived.insert(column.to_string(), cell);
        }
        Ok(self)
    }

    // ---------------------------------------------------------- accessors

    /// The experiment name.
    pub fn name(&self) -> &str {
        &self.manifest.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows are set.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// One row.
    pub fn row(&self, index: usize) -> Option<&Row> {
        self.rows.get(index)
    }

    /// A full column as values: `"object"`, `"task"`, `"result"`, or any
    /// derived column. Missing cells are `null`; a cell that fails to
    /// decode is an `Err`.
    pub fn column(&self, name: &str) -> Result<Vec<Value>> {
        match name {
            "object" => Ok(self.rows.iter().map(|r| r.object.clone()).collect()),
            "task" => self.rows.iter().map(|r| Ok(task_json(r)?.unwrap_or(Value::Null))).collect(),
            "result" => {
                self.rows.iter().map(|r| Ok(result_json(r)?.unwrap_or(Value::Null))).collect()
            }
            other => {
                // An empty table has every column, all empty.
                if !self.rows.is_empty()
                    && !self.rows.iter().any(|r| r.derived.contains_key(other))
                {
                    return Err(Error::MissingColumn(other.to_string()));
                }
                Ok(self
                    .rows
                    .iter()
                    .map(|r| r.derived.get(other).cloned().unwrap_or(Value::Null))
                    .collect())
            }
        }
    }

    /// Cache-reuse statistics for this instance.
    pub fn run_stats(&self) -> RunStats {
        self.stats
    }

    /// Exports the whole table — objects, tasks, results, derived cells —
    /// as one self-describing JSON document, for examination outside the
    /// library (notebooks, diffing two researchers' runs, archival).
    pub fn export_json(&self) -> Result<Value> {
        let mut rows = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            rows.push(serde_json::json!({
                "index": row.index,
                "hash": row.hash,
                "object": row.object,
                "task": task_json(row)?,
                "result": result_json(row)?,
                "derived": row.derived,
            }));
        }
        Ok(serde_json::json!({
            "experiment": self.manifest.name,
            "presenter_fingerprint": self.manifest.presenter_fingerprint,
            "n_assignments": self.manifest.n_assignments,
            "rows": rows,
        }))
    }

    /// The presenter, if step 2 has run.
    pub fn current_presenter(&self) -> Option<&Presenter> {
        self.presenter.as_ref()
    }

    /// The manifest as persisted.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The owning context.
    pub fn context(&self) -> &CrowdContext {
        &self.ctx
    }

    fn save_manifest(&self) -> Result<()> {
        self.ctx
            .store()
            .manifests
            .put(self.manifest.name.as_bytes(), &self.manifest)?;
        Ok(())
    }
}

/// The row's platform task as JSON, decoded from its cell (`None` before
/// step 3).
fn task_json(row: &Row) -> Result<Option<Value>> {
    row.task.as_ref().map(|cell| Ok(serde_json::to_value(cell.decode()?.task)?)).transpose()
}

/// The row's task runs as JSON (`None` before step 4).
fn result_json(row: &Row) -> Result<Option<Value>> {
    Ok(row.result.as_ref().map(|r| serde_json::to_value(&r.runs)).transpose()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::val;
    use reprowd_platform::types::TaskSpec;
    use reprowd_platform::{CrowdPlatform, SimPlatform};
    use reprowd_storage::{Backend, MemoryStore};
    use std::sync::Arc;

    fn sim_ctx(seed: u64) -> (CrowdContext, Arc<SimPlatform>) {
        let platform = Arc::new(SimPlatform::quick(5, 1.0, seed));
        let backend: Arc<dyn Backend> = Arc::new(MemoryStore::new());
        (CrowdContext::new(Arc::clone(&platform) as Arc<dyn CrowdPlatform>, backend).unwrap(), platform)
    }

    fn figure2(cc: &CrowdContext, name: &str) -> CrowdData {
        // The paper's Bob experiment over the simulated crowd: objects carry
        // the answer model a real crowd would infer by looking at the image.
        let objects: Vec<Value> = (0..3)
            .map(|i| {
                val!({
                    "url": format!("img{i}.jpg"),
                    "_sim": {"kind": "label", "truth": (i % 2), "labels": ["Yes", "No"], "difficulty": 0.0}
                })
            })
            .collect();
        cc.crowddata(name)
            .unwrap()
            .data(objects)
            .unwrap()
            .presenter(Presenter::image_label("Is this a cat?", &["Yes", "No"]))
            .unwrap()
            .publish(3)
            .unwrap()
            .collect()
            .unwrap()
            .majority_vote()
            .unwrap()
    }

    #[test]
    fn figure2_end_to_end() {
        let (cc, _) = sim_ctx(1);
        let cd = figure2(&cc, "bob");
        assert_eq!(cd.len(), 3);
        let mv = cd.column("mv").unwrap();
        // Perfect workers: majority equals truth.
        assert_eq!(mv, vec![val!("Yes"), val!("No"), val!("Yes")]);
        let stats = cd.run_stats();
        assert_eq!(stats.tasks_published, 3);
        assert_eq!(stats.results_collected, 3);
        assert_eq!(stats.tasks_reused, 0);
    }

    #[test]
    fn rerun_uses_zero_platform_calls() {
        let (cc, platform) = sim_ctx(2);
        let first = figure2(&cc, "bob");
        let calls_after_first = platform.api_calls();
        let second = figure2(&cc, "bob");
        // Identical results...
        assert_eq!(first.column("mv").unwrap(), second.column("mv").unwrap());
        assert_eq!(first.column("result").unwrap(), second.column("result").unwrap());
        // ...and not a single extra platform call.
        assert_eq!(platform.api_calls(), calls_after_first);
        let stats = second.run_stats();
        assert_eq!(stats.tasks_published, 0);
        assert_eq!(stats.tasks_reused, 3);
        assert_eq!(stats.results_reused, 3);
    }

    #[test]
    fn extending_only_crowdsources_the_delta() {
        let (cc, platform) = sim_ctx(3);
        let _ = figure2(&cc, "bob");
        let calls_before = platform.api_calls();
        // Ally extends Bob's experiment with two new images.
        let objects: Vec<Value> = (0..5)
            .map(|i| {
                val!({
                    "url": format!("img{i}.jpg"),
                    "_sim": {"kind": "label", "truth": (i % 2), "labels": ["Yes", "No"], "difficulty": 0.0}
                })
            })
            .collect();
        let cd = cc
            .crowddata("bob")
            .unwrap()
            .data(objects)
            .unwrap()
            .presenter(Presenter::image_label("Is this a cat?", &["Yes", "No"]))
            .unwrap()
            .publish(3)
            .unwrap()
            .collect()
            .unwrap()
            .majority_vote()
            .unwrap();
        let stats = cd.run_stats();
        assert_eq!(stats.tasks_reused, 3);
        assert_eq!(stats.tasks_published, 2);
        assert_eq!(stats.results_reused, 3);
        assert_eq!(stats.results_collected, 2);
        // Platform saw exactly the delta, batched: one bulk publish of the
        // 2 new rows + one bulk fetch of their runs.
        assert_eq!(platform.api_calls() - calls_before, 2);
        assert_eq!(cd.column("mv").unwrap().len(), 5);
    }

    #[test]
    fn changing_presenter_invalidates_cache() {
        let (cc, platform) = sim_ctx(4);
        let _ = figure2(&cc, "bob");
        let calls_before = platform.api_calls();
        let objects: Vec<Value> = (0..3)
            .map(|i| {
                val!({
                    "url": format!("img{i}.jpg"),
                    "_sim": {"kind": "label", "truth": (i % 2), "labels": ["Yes", "No"], "difficulty": 0.0}
                })
            })
            .collect();
        let cd = cc
            .crowddata("bob")
            .unwrap()
            .data(objects)
            .unwrap()
            // Different question: the old answers are not valid for it.
            .presenter(Presenter::image_label("Is this a DOG?", &["Yes", "No"]))
            .unwrap()
            .publish(3)
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(cd.run_stats().tasks_published, 3);
        assert!(platform.api_calls() > calls_before);
    }

    #[test]
    fn reordering_steps_keeps_cache_valid() {
        // Unlike TurKit's order-keyed cache, content keys survive
        // reordering of independent manipulations: publishing the same rows
        // in reverse object order reuses all cells.
        let (cc, platform) = sim_ctx(5);
        let objs = |rev: bool| {
            let mut v: Vec<Value> = (0..4)
                .map(|i| {
                    val!({
                        "url": format!("img{i}.jpg"),
                        "_sim": {"kind": "label", "truth": 0, "labels": ["Yes", "No"], "difficulty": 0.0}
                    })
                })
                .collect();
            if rev {
                v.reverse();
            }
            v
        };
        let p = Presenter::image_label("Q?", &["Yes", "No"]);
        let _ = cc
            .crowddata("exp")
            .unwrap()
            .data(objs(false))
            .unwrap()
            .presenter(p.clone())
            .unwrap()
            .publish(2)
            .unwrap()
            .collect()
            .unwrap();
        let calls = platform.api_calls();
        let cd = cc
            .crowddata("exp")
            .unwrap()
            .data(objs(true))
            .unwrap()
            .presenter(p)
            .unwrap()
            .publish(2)
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(platform.api_calls(), calls, "reordered rerun must be free");
        assert_eq!(cd.run_stats().tasks_reused, 4);
    }

    #[test]
    fn duplicate_objects_get_distinct_tasks() {
        let (cc, _) = sim_ctx(6);
        let obj = val!({"url": "same.jpg", "_sim": {"kind": "label", "truth": 0, "labels": ["Yes", "No"], "difficulty": 0.0}});
        let cd = cc
            .crowddata("dups")
            .unwrap()
            .data(vec![obj.clone(), obj.clone(), obj])
            .unwrap()
            .presenter(Presenter::image_label("Q?", &["Yes", "No"]))
            .unwrap()
            .publish(1)
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(cd.run_stats().tasks_published, 3);
        let hashes: std::collections::HashSet<&String> =
            cd.rows().iter().map(|r| &r.hash).collect();
        assert_eq!(hashes.len(), 3, "duplicate rows must have distinct cache keys");
    }

    #[test]
    fn state_errors() {
        let (cc, _) = sim_ctx(7);
        // publish before data
        assert!(matches!(
            cc.crowddata("x").unwrap().publish(3),
            Err(Error::State(_))
        ));
        // publish before presenter
        assert!(matches!(
            cc.crowddata("x").unwrap().data(vec![val!(1)]).unwrap().publish(3),
            Err(Error::State(_))
        ));
        // collect before publish
        let cd = cc
            .crowddata("x")
            .unwrap()
            .data(vec![val!(1)])
            .unwrap()
            .presenter(Presenter::free_text("Q"))
            .unwrap();
        assert!(matches!(cd.collect(), Err(Error::State(_))));
        // zero redundancy
        let cd = cc
            .crowddata("y")
            .unwrap()
            .data(vec![val!(1)])
            .unwrap()
            .presenter(Presenter::free_text("Q"))
            .unwrap();
        assert!(matches!(cd.publish(0), Err(Error::State(_))));
    }

    #[test]
    fn map_adds_derived_column() {
        let (cc, _) = sim_ctx(8);
        let cd = cc
            .crowddata("m")
            .unwrap()
            .data(vec![val!({"n": 1}), val!({"n": 2})])
            .unwrap()
            .map("double", |row| val!(row.object["n"].as_i64().unwrap() * 2))
            .unwrap();
        assert_eq!(cd.column("double").unwrap(), vec![val!(2), val!(4)]);
        // Reserved names rejected.
        assert!(cd.map("task", |_| Value::Null).is_err());
    }

    #[test]
    fn missing_column_errors() {
        let (cc, _) = sim_ctx(9);
        let cd = cc.crowddata("c").unwrap().data(vec![val!(1)]).unwrap();
        assert!(matches!(cd.column("nope"), Err(Error::MissingColumn(_))));
        assert_eq!(cd.column("object").unwrap(), vec![val!(1)]);
        assert_eq!(cd.column("task").unwrap(), vec![Value::Null]);
        assert_eq!(cd.column("result").unwrap(), vec![Value::Null]);
    }

    #[test]
    fn lost_platform_tasks_are_republished_on_collect() {
        // The *client* keeps its database, but the platform is a fresh
        // instance (its state died). collect() must republish pending rows.
        let backend: Arc<dyn Backend> = Arc::new(MemoryStore::new());
        let p1 = Arc::new(SimPlatform::quick(3, 1.0, 10));
        let cc1 =
            CrowdContext::new(Arc::clone(&p1) as Arc<dyn CrowdPlatform>, Arc::clone(&backend))
                .unwrap();
        let obj = val!({"url": "a.jpg", "_sim": {"kind": "label", "truth": 0, "labels": ["Yes", "No"], "difficulty": 0.0}});
        // Publish but do NOT collect.
        let _ = cc1
            .crowddata("exp")
            .unwrap()
            .data(vec![obj.clone()])
            .unwrap()
            .presenter(Presenter::image_label("Q?", &["Yes", "No"]))
            .unwrap()
            .publish(2)
            .unwrap();
        // New platform, same database.
        let p2 = Arc::new(SimPlatform::quick(3, 1.0, 11));
        let cc2 =
            CrowdContext::new(Arc::clone(&p2) as Arc<dyn CrowdPlatform>, backend).unwrap();
        let cd = cc2
            .crowddata("exp")
            .unwrap()
            .data(vec![obj])
            .unwrap()
            .presenter(Presenter::image_label("Q?", &["Yes", "No"]))
            .unwrap()
            .publish(2)
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(cd.run_stats().tasks_republished, 1);
        assert_eq!(cd.rows()[0].result.as_ref().unwrap().runs.len(), 2);
    }

    #[test]
    fn bulk_contract_violation_is_an_error_not_truncation() {
        use reprowd_platform::types::{Project, ProjectId, SimTime, Task, TaskId, TaskRun};

        /// A misbehaving platform whose bulk publish drops the last task
        /// (the "partial accept" some real bulk APIs perform).
        struct ShortBulk(SimPlatform);

        impl CrowdPlatform for ShortBulk {
            fn name(&self) -> &str {
                "short-bulk"
            }
            fn create_project(&self, name: &str) -> reprowd_platform::Result<ProjectId> {
                self.0.create_project(name)
            }
            fn project(&self, id: ProjectId) -> reprowd_platform::Result<Project> {
                self.0.project(id)
            }
            fn publish_tasks(
                &self,
                project: ProjectId,
                specs: Vec<TaskSpec>,
            ) -> reprowd_platform::Result<Vec<Task>> {
                let mut tasks = self.0.publish_tasks(project, specs)?;
                tasks.pop();
                Ok(tasks)
            }
            fn task(&self, id: TaskId) -> reprowd_platform::Result<Task> {
                self.0.task(id)
            }
            fn fetch_runs_bulk(
                &self,
                tasks: &[TaskId],
            ) -> reprowd_platform::Result<Vec<Vec<TaskRun>>> {
                self.0.fetch_runs_bulk(tasks)
            }
            fn are_complete(
                &self,
                tasks: &[TaskId],
            ) -> reprowd_platform::Result<Vec<Option<bool>>> {
                self.0.are_complete(tasks)
            }
            fn step(&self) -> reprowd_platform::Result<bool> {
                self.0.step()
            }
            fn run_until_complete(&self, tasks: &[TaskId]) -> reprowd_platform::Result<()> {
                self.0.run_until_complete(tasks)
            }
            fn api_calls(&self) -> u64 {
                self.0.api_calls()
            }
            fn now(&self) -> SimTime {
                self.0.now()
            }
        }

        let backend: Arc<dyn Backend> = Arc::new(MemoryStore::new());
        let platform = Arc::new(ShortBulk(SimPlatform::quick(3, 0.9, 1)));
        let cc = CrowdContext::new(platform, backend).unwrap();
        let err = cc
            .crowddata("short")
            .unwrap()
            .data(vec![val!(1), val!(2), val!(3)])
            .unwrap()
            .presenter(Presenter::free_text("Q"))
            .unwrap()
            .publish(1)
            .err()
            .expect("short bulk response must surface as an error");
        assert!(
            err.to_string().contains("bulk contract violated"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn export_json_is_complete_and_self_describing() {
        let (cc, _) = sim_ctx(14);
        let cd = figure2(&cc, "export");
        let doc = cd.export_json().unwrap();
        assert_eq!(doc["experiment"], "export");
        assert_eq!(doc["rows"].as_array().unwrap().len(), 3);
        let row0 = &doc["rows"][0];
        assert!(row0["task"]["published_at"].is_number());
        assert_eq!(row0["result"].as_array().unwrap().len(), 3);
        assert_eq!(row0["derived"]["mv"], val!("Yes"));
        // The export round-trips through serde as plain JSON.
        let s = serde_json::to_string(&doc).unwrap();
        let back: Value = serde_json::from_str(&s).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn vote_matrix_bridges_answers() {
        let (cc, _) = sim_ctx(12);
        let cd = figure2(&cc, "bridge");
        let (matrix, space) = cd.vote_matrix().unwrap();
        assert_eq!(matrix.n_items(), 3);
        assert_eq!(matrix.n_votes(), 9);
        assert_eq!(space, vec![val!("Yes"), val!("No")]);
    }

    #[test]
    fn aggregators_set_their_columns() {
        let (cc, _) = sim_ctx(13);
        let cd = figure2(&cc, "agg");
        let objects = cd.column("object").unwrap();
        let cd = cc
            .crowddata("agg")
            .unwrap()
            .data(objects)
            .unwrap()
            .presenter(Presenter::image_label("Is this a cat?", &["Yes", "No"]))
            .unwrap()
            .publish(3)
            .unwrap()
            .collect()
            .unwrap()
            .em_vote(&OneCoinConfig::default())
            .unwrap()
            .dawid_skene(&DsConfig::default())
            .unwrap()
            .weighted_vote(&HashMap::new(), 1.0)
            .unwrap();
        for col in ["em", "ds", "wmv"] {
            let v = cd.column(col).unwrap();
            assert_eq!(v.len(), 3);
            assert!(v.iter().all(|x| !x.is_null()), "column {col} has nulls: {v:?}");
        }
    }
}
