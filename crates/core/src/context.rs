//! CrowdContext — "the main entry point for Reprowd functionality"
//! (paper Figure 1): a crowdsourcing platform + a database, shared by every
//! CrowdData experiment of a session.

use crate::crowddata::CrowdData;
use crate::error::{Error, Result};
use crate::exec::{BatchMetrics, BatchMetricsSnapshot, ExecutionConfig};
use crate::store::{ExperimentStore, Manifest};
use reprowd_platform::{CrowdPlatform, SimPlatform};
use reprowd_storage::{Backend, Batch, DiskStore, MemoryStore, SyncPolicy};
use std::path::Path;
use std::sync::Arc;

/// Rejects experiment names that cannot serve as cache-key namespaces.
/// Shared by [`CrowdContext::crowddata`] and the streaming runner
/// ([`crate::pipeline::run_stream`]).
pub(crate) fn validate_experiment_name(name: &str) -> Result<()> {
    if name.is_empty() || name.contains('/') {
        return Err(Error::State(format!(
            "experiment name {name:?} must be non-empty and must not contain '/'"
        )));
    }
    Ok(())
}

/// The session object: platform + database + the experiment tables, plus
/// the [`ExecutionConfig`] that batches their traffic and the
/// [`BatchMetrics`] ledger of every round-trip it issued.
///
/// Cloning is cheap (`Arc`s and two integers); a context can be shared
/// across operator pipelines and threads. Clones, and copies re-tuned with
/// [`with_batch_size`](CrowdContext::with_batch_size) or
/// [`with_inflight_batches`](CrowdContext::with_inflight_batches), share
/// one ledger.
#[derive(Clone)]
pub struct CrowdContext {
    platform: Arc<dyn CrowdPlatform>,
    backend: Arc<dyn Backend>,
    store: Arc<ExperimentStore>,
    config: ExecutionConfig,
    metrics: Arc<BatchMetrics>,
}

impl CrowdContext {
    /// Builds a context from an arbitrary platform and database backend,
    /// with the default [`ExecutionConfig`].
    pub fn new(platform: Arc<dyn CrowdPlatform>, backend: Arc<dyn Backend>) -> Result<Self> {
        CrowdContext::with_config(platform, backend, ExecutionConfig::default())
    }

    /// Builds a context with an explicit execution policy (batch size).
    pub fn with_config(
        platform: Arc<dyn CrowdPlatform>,
        backend: Arc<dyn Backend>,
        config: ExecutionConfig,
    ) -> Result<Self> {
        config.validate()?;
        let store = Arc::new(ExperimentStore::open(Arc::clone(&backend))?);
        Ok(CrowdContext { platform, backend, store, config, metrics: Arc::default() })
    }

    /// A copy of this context using `batch_size` rows per platform
    /// round-trip. Shares the platform, database, and batch metrics with
    /// `self`; errors if `batch_size` is 0.
    pub fn with_batch_size(&self, batch_size: usize) -> Result<Self> {
        self.retune(ExecutionConfig { batch_size, ..self.config.clone() })
    }

    /// A copy of this context keeping `depth` batch round-trips in flight
    /// (see [`ExecutionConfig::inflight_batches`]). Shares the platform,
    /// database, and batch metrics with `self`; errors if `depth` is 0.
    /// Depth is a pure wall-clock knob: results are bit-identical at
    /// every setting.
    pub fn with_inflight_batches(&self, depth: usize) -> Result<Self> {
        self.retune(self.config.clone().with_inflight_batches(depth))
    }

    /// A copy of this context under `config`, sharing everything else
    /// (the batch metrics included); errors if `config` is invalid.
    fn retune(&self, config: ExecutionConfig) -> Result<Self> {
        config.validate()?;
        Ok(CrowdContext { config, ..self.clone() })
    }

    /// A context over a simulated crowd (5 workers, ability 0.85) and an
    /// in-memory database. The quickest way to try the system out.
    pub fn in_memory_sim(seed: u64) -> Self {
        let platform = Arc::new(SimPlatform::quick(5, 0.85, seed));
        CrowdContext::new(platform, Arc::new(MemoryStore::new()))
            .expect("in-memory context construction")
    }

    /// A context over the given platform and a durable on-disk database —
    /// the file you would share with another researcher.
    pub fn on_disk(
        platform: Arc<dyn CrowdPlatform>,
        db_path: impl AsRef<Path>,
        sync: SyncPolicy,
    ) -> Result<Self> {
        CrowdContext::new(platform, Arc::new(DiskStore::open(db_path, sync)?))
    }

    /// Starts (or resumes) the experiment called `name`.
    ///
    /// If the database already holds a manifest for `name` — because the
    /// program ran before, crashed before, or the file came from another
    /// researcher — the CrowdData resumes from it; the subsequent
    /// `data`/`publish`/`collect` calls will then reuse every cached cell.
    pub fn crowddata(&self, name: &str) -> Result<CrowdData> {
        validate_experiment_name(name)?;
        let manifest = match self.store.manifests.get(name.as_bytes())? {
            Some(m) => m,
            None => {
                let m = Manifest::new(name);
                self.store.manifests.put(name.as_bytes(), &m)?;
                m
            }
        };
        Ok(CrowdData::resume(self.clone(), manifest))
    }

    /// Names of every experiment stored in this database.
    pub fn experiments(&self) -> Result<Vec<String>> {
        Ok(self
            .store
            .manifests
            .scan()?
            .into_iter()
            .map(|(_, m)| m.name)
            .collect())
    }

    /// Deletes an experiment: its manifest and every cached task/result,
    /// under every presenter it ever ran with, in one atomic batch (a
    /// crash leaves the whole experiment or none of it). The
    /// platform-side project (if any) is left as-is, like the original
    /// system (PyBossa projects outlive local state). Cells are found by
    /// key alone, so a damaged cell is deleted with the rest.
    pub fn delete_experiment(&self, name: &str) -> Result<()> {
        if self.store.manifests.get(name.as_bytes())?.is_none() {
            return Ok(());
        }
        let prefix = ExperimentStore::experiment_prefix(name);
        let mut batch = Batch::new();
        self.store.tasks.stage_remove_prefix(&mut batch, prefix.as_bytes())?;
        self.store.results.stage_remove_prefix(&mut batch, prefix.as_bytes())?;
        self.store.manifests.stage_remove(&mut batch, name.as_bytes());
        self.backend.apply_batch(batch)?;
        Ok(())
    }

    /// The platform this context publishes to.
    pub fn platform(&self) -> &Arc<dyn CrowdPlatform> {
        &self.platform
    }

    /// The execution policy threaded through `publish`/`collect`.
    pub fn config(&self) -> &ExecutionConfig {
        &self.config
    }

    /// Rows per platform round-trip (see
    /// [`ExecutionConfig::batch_size`]).
    pub fn batch_size(&self) -> usize {
        self.config.batch_size
    }

    /// A snapshot of the round-trip counters accumulated by this context
    /// lineage (shared across clones and [`with_batch_size`] derivatives).
    ///
    /// [`with_batch_size`]: CrowdContext::with_batch_size
    pub fn batch_metrics(&self) -> BatchMetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The shared round-trip ledger the pipeline records into.
    pub(crate) fn metrics(&self) -> &BatchMetrics {
        &self.metrics
    }

    /// The raw database backend (snapshots, stats).
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.backend
    }

    /// The experiment tables.
    pub(crate) fn store(&self) -> &ExperimentStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_lifecycle() {
        let cc = CrowdContext::in_memory_sim(1);
        assert!(cc.experiments().unwrap().is_empty());
        let _cd = cc.crowddata("exp-a").unwrap();
        let _cd = cc.crowddata("exp-b").unwrap();
        let mut names = cc.experiments().unwrap();
        names.sort();
        assert_eq!(names, vec!["exp-a", "exp-b"]);
        cc.delete_experiment("exp-a").unwrap();
        assert_eq!(cc.experiments().unwrap(), vec!["exp-b"]);
        // Deleting a non-existent experiment is fine.
        cc.delete_experiment("ghost").unwrap();
    }

    #[test]
    fn invalid_names_rejected() {
        let cc = CrowdContext::in_memory_sim(1);
        assert!(cc.crowddata("").is_err());
        assert!(cc.crowddata("a/b").is_err());
    }

    #[test]
    fn batched_in_memory_context() {
        let cc = CrowdContext::in_memory_sim(7).with_batch_size(8).unwrap();
        assert_eq!(cc.batch_size(), 8);
        let cd = cc
            .crowddata("batched")
            .unwrap()
            .data((0..40).map(|i| crate::value::Value::from(format!("obj{i}"))).collect())
            .unwrap()
            .presenter(crate::presenter::Presenter::image_label("label?", &["A", "B"]))
            .unwrap()
            .publish(3)
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(cd.run_stats().results_collected, 40);
        // The collect status pass metered its completion probes.
        assert!(cc.batch_metrics().probe_calls >= 1);
        // An invalid config is rejected up front.
        let bad = ExecutionConfig::with_batch_size(0);
        let platform = Arc::new(SimPlatform::quick(5, 0.85, 7));
        assert!(CrowdContext::with_config(platform, Arc::new(MemoryStore::new()), bad).is_err());
    }

    #[test]
    fn with_config_over_a_segmented_disk_store() {
        use reprowd_storage::SegmentPolicy;
        let dir = std::env::temp_dir().join(format!("reprowd-ctx-seg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("segmented.rwlog");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(reprowd_storage::manifest::manifest_path(&path));
        let platform = Arc::new(SimPlatform::quick(5, 0.9, 11));
        let store = DiskStore::open_with(&path, SyncPolicy::Never, SegmentPolicy::new(512, 1.0));
        let cc = CrowdContext::with_config(
            Arc::clone(&platform) as Arc<dyn CrowdPlatform>,
            Arc::new(store.unwrap()),
            ExecutionConfig::with_batch_size(4),
        )
        .unwrap();
        let cd = cc
            .crowddata("seg")
            .unwrap()
            .data((0..12).map(|i| crate::value::Value::from(format!("obj{i}"))).collect())
            .unwrap()
            .presenter(crate::presenter::Presenter::image_label("label?", &["A", "B"]))
            .unwrap()
            .publish(3)
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(cd.run_stats().results_collected, 12);
        // The tiny policy actually reached the store: the log rotated.
        assert!(cc.backend().stats().segments > 1, "stats: {:?}", cc.backend().stats());
        // An invalid policy is rejected up front.
        let bad = SegmentPolicy::new(0, 0.5);
        assert!(
            DiskStore::open_with(dir.join("never-created.rwlog"), SyncPolicy::Never, bad).is_err()
        );
    }

    #[test]
    fn delete_experiment_removes_every_presenter_in_one_batch() {
        let path = std::env::temp_dir()
            .join(format!("reprowd-ctx-delete-{}.rwlog", std::process::id()));
        let _ = DiskStore::destroy(&path);
        let platform: Arc<dyn CrowdPlatform> = Arc::new(SimPlatform::quick(5, 0.9, 3));
        let open = || CrowdContext::on_disk(Arc::clone(&platform), &path, SyncPolicy::Always);
        let run = |cc: &CrowdContext, name: &str, question: &str| {
            cc.crowddata(name)
                .unwrap()
                .data((0..4).map(|i| crate::value::Value::from(format!("obj{i}"))).collect())
                .unwrap()
                .presenter(crate::presenter::Presenter::image_label(question, &["A", "B"]))
                .unwrap()
                .publish(3)
                .unwrap()
                .collect()
                .unwrap()
                .run_stats()
        };
        let keys = |cc: &CrowdContext| -> Vec<String> {
            let scan = cc.backend().scan_prefix(b"").unwrap();
            scan.into_iter().map(|(k, _)| String::from_utf8(k).unwrap()).collect()
        };
        let cc = open().unwrap();
        run(&cc, "exp", "first?");
        run(&cc, "exp", "second?");
        run(&cc, "other", "first?");
        let all = keys(&cc);
        let mut others = all.clone();
        others.retain(|k| k.ends_with("/other") || k.contains("/other/"));
        // "exp": 2 presenters × 4 rows × (task + result) + its manifest.
        assert_eq!(all.len() - others.len(), 17);

        cc.delete_experiment("exp").unwrap();
        assert_eq!(cc.experiments().unwrap(), vec!["other"]);
        assert_eq!(keys(&cc), others, "cells of an earlier presenter survived");
        drop(cc);

        // Tear the tail of the log: the delete was one record, so the
        // whole experiment comes back, never a part of it.
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 4).unwrap();
        let cc = open().unwrap();
        assert_eq!(keys(&cc), all, "a torn delete must leave the experiment whole");

        // Deleted work is never reused by a rerun under the old presenter.
        cc.delete_experiment("exp").unwrap();
        let rerun = run(&cc, "exp", "first?");
        assert_eq!((rerun.tasks_reused, rerun.tasks_published), (0, 4));
        drop(cc);
        DiskStore::destroy(&path).unwrap();
    }

    #[test]
    fn delete_experiment_removes_a_cell_that_does_not_decode() {
        let cc = CrowdContext::in_memory_sim(4);
        cc.crowddata("exp")
            .unwrap()
            .data(vec![crate::value::Value::from("obj")])
            .unwrap()
            .presenter(crate::presenter::Presenter::image_label("q?", &["A", "B"]))
            .unwrap()
            .publish(1)
            .unwrap();
        let _ = cc.crowddata("other").unwrap();
        let damaged = b"t/task/exp/presenter/damaged";
        cc.backend().set(damaged, b"not json {").unwrap();
        assert!(cc.store().tasks.scan_prefix(b"exp/").is_err(), "the cell must not decode");

        cc.delete_experiment("exp").unwrap();
        assert_eq!(cc.experiments().unwrap(), vec!["other"]);
        let left = cc.backend().scan_prefix(b"").unwrap();
        let left: Vec<_> = left.into_iter().map(|(k, _)| String::from_utf8(k).unwrap()).collect();
        assert_eq!(left, vec!["t/manifest/other"], "every cell of the experiment must go");
    }

    #[test]
    fn reopening_is_resume_not_reset() {
        let cc = CrowdContext::in_memory_sim(1);
        let _ = cc.crowddata("exp").unwrap();
        // Same name twice: still one experiment.
        let _ = cc.crowddata("exp").unwrap();
        assert_eq!(cc.experiments().unwrap().len(), 1);
    }
}
