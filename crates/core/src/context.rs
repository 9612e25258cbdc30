//! CrowdContext — "the main entry point for Reprowd functionality"
//! (paper Figure 1): a crowdsourcing platform + a database, shared by every
//! CrowdData experiment of a session.

use crate::crowddata::CrowdData;
use crate::error::{Error, Result};
use crate::exec::{BatchMetricsSnapshot, ExecutionConfig, ExecutionContext};
use crate::store::{ExperimentStore, Manifest};
use reprowd_platform::{CrowdPlatform, SimPlatform};
use reprowd_storage::{Backend, DiskStore, MemoryStore, SyncPolicy};
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
/// the [`ExecutionContext`] that batches their traffic.
///
/// Cloning is cheap (all `Arc`s); a context can be shared across operator
/// pipelines and threads.
#[derive(Clone)]
pub struct CrowdContext {
    platform: Arc<dyn CrowdPlatform>,
    backend: Arc<dyn Backend>,
    store: Arc<ExperimentStore>,
    exec: ExecutionContext,
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
        let store = Arc::new(ExperimentStore::open(Arc::clone(&backend))?);
        let exec = ExecutionContext::new(config)?;
        Ok(CrowdContext { platform, backend, store, exec })
    }

    /// A copy of this context using `batch_size` rows per platform
    /// round-trip. Shares the platform, database, and batch metrics with
    /// `self`; errors if `batch_size` is 0.
    pub fn with_batch_size(&self, batch_size: usize) -> Result<Self> {
        let mut cc = self.clone();
        cc.exec = self.exec.retuned(batch_size)?;
        Ok(cc)
    }

    /// A copy of this context keeping `depth` batch round-trips in flight
    /// (see [`ExecutionConfig::inflight_batches`]). Shares the platform,
    /// database, and batch metrics with `self`; errors if `depth` is 0.
    /// Depth is a pure wall-clock knob: results are bit-identical at
    /// every setting.
    pub fn with_inflight_batches(&self, depth: usize) -> Result<Self> {
        let mut cc = self.clone();
        cc.exec = self.exec.retuned_config(ExecutionConfig {
            inflight_batches: depth,
            ..self.exec.config().clone()
        })?;
        Ok(cc)
    }

    /// A context over a simulated crowd (5 workers, ability 0.85) and an
    /// in-memory database. The quickest way to try the system out.
    pub fn in_memory_sim(seed: u64) -> Self {
        CrowdContext::in_memory_sim_with(seed, ExecutionConfig::default())
            .expect("in-memory context construction")
    }

    /// Like [`in_memory_sim`](CrowdContext::in_memory_sim) — the same
    /// crowd — but honoring the whole [`ExecutionConfig`]; errors if the
    /// config is invalid.
    pub fn in_memory_sim_with(seed: u64, config: ExecutionConfig) -> Result<Self> {
        let platform = Arc::new(SimPlatform::quick(5, 0.85, seed));
        CrowdContext::with_config(platform, Arc::new(MemoryStore::new()), config)
    }

    /// A context over the given platform and a durable on-disk database —
    /// the file you would share with another researcher.
    pub fn on_disk(
        platform: Arc<dyn CrowdPlatform>,
        db_path: impl AsRef<Path>,
        sync: SyncPolicy,
    ) -> Result<Self> {
        CrowdContext::on_disk_with(platform, db_path, sync, ExecutionConfig::default())
    }

    /// Like [`on_disk`](CrowdContext::on_disk), but honoring the whole
    /// [`ExecutionConfig`] — including
    /// [`segment_policy`](ExecutionConfig::segment_policy), which sizes
    /// the database's log segments and sets its auto-compaction
    /// threshold. Both batching and segmentation are pure performance
    /// knobs: results are bit-identical under every setting.
    pub fn on_disk_with(
        platform: Arc<dyn CrowdPlatform>,
        db_path: impl AsRef<Path>,
        sync: SyncPolicy,
        config: ExecutionConfig,
    ) -> Result<Self> {
        config.validate()?;
        let backend: Arc<dyn Backend> =
            Arc::new(DiskStore::open_with(db_path, sync, config.segment_policy)?);
        CrowdContext::with_config(platform, backend, config)
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

    /// Deletes an experiment: its manifest and every cached task/result.
    /// The platform-side project (if any) is left as-is, like the original
    /// system (PyBossa projects outlive local state).
    pub fn delete_experiment(&self, name: &str) -> Result<()> {
        let Some(manifest) = self.store.manifests.get(name.as_bytes())? else {
            return Ok(());
        };
        if let Some(fp) = &manifest.presenter_fingerprint {
            // scan_prefix returns full row keys (within the table), so they
            // can be removed directly.
            let prefix = ExperimentStore::prefix(name, fp);
            for (key, _) in self.store.tasks.scan_prefix(prefix.as_bytes())? {
                self.store.tasks.remove(&key)?;
            }
            for (key, _) in self.store.results.scan_prefix(prefix.as_bytes())? {
                self.store.results.remove(&key)?;
            }
        }
        self.store.manifests.remove(name.as_bytes())?;
        Ok(())
    }

    /// The platform this context publishes to.
    pub fn platform(&self) -> &Arc<dyn CrowdPlatform> {
        &self.platform
    }

    /// The execution policy + metrics threaded through `publish`/`collect`.
    pub fn exec(&self) -> &ExecutionContext {
        &self.exec
    }

    /// Rows per platform round-trip (see
    /// [`ExecutionConfig::batch_size`]).
    pub fn batch_size(&self) -> usize {
        self.exec.batch_size()
    }

    /// A snapshot of the round-trip counters accumulated by this context
    /// lineage (shared across clones and [`with_batch_size`] derivatives).
    ///
    /// [`with_batch_size`]: CrowdContext::with_batch_size
    pub fn batch_metrics(&self) -> BatchMetricsSnapshot {
        self.exec.metrics().snapshot()
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
    fn sharded_in_memory_context() {
        let cfg = ExecutionConfig::with_batch_size(8);
        let cc = CrowdContext::in_memory_sim_with(7, cfg).unwrap();
        assert_eq!(cc.batch_size(), 8);
        let cd = cc
            .crowddata("sharded")
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
        assert!(CrowdContext::in_memory_sim_with(7, bad).is_err());
    }

    #[test]
    fn on_disk_with_threads_the_segment_policy_through() {
        use reprowd_storage::SegmentPolicy;
        let dir = std::env::temp_dir().join(format!("reprowd-ctx-seg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("segmented.rwlog");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(reprowd_storage::manifest::manifest_path(&path));
        let platform = Arc::new(SimPlatform::quick(5, 0.9, 11));
        let cfg = ExecutionConfig::with_batch_size(4)
            .with_segment_policy(SegmentPolicy::new(512, 1.0));
        let cc = CrowdContext::on_disk_with(
            Arc::clone(&platform) as Arc<dyn CrowdPlatform>,
            &path,
            SyncPolicy::Never,
            cfg,
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
        let bad = ExecutionConfig::default().with_segment_policy(SegmentPolicy::new(0, 0.5));
        assert!(CrowdContext::on_disk_with(
            Arc::clone(&platform) as Arc<dyn CrowdPlatform>,
            dir.join("never-created.rwlog"),
            SyncPolicy::Never,
            bad,
        )
        .is_err());
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
