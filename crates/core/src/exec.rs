//! Execution policy and metrics of the batched publish/collect pipeline.
//!
//! [`publish`](crate::CrowdData::publish) and
//! [`collect`](crate::CrowdData::collect) do not talk to the platform one
//! row at a time: rows that miss the cache are partitioned into chunks of
//! [`ExecutionConfig::batch_size`] and each chunk becomes **one** platform
//! round-trip (bulk publish or bulk fetch) followed by **one** atomic
//! database write. A [`CrowdContext`](crate::CrowdContext) carries that
//! policy plus the [`BatchMetrics`] accounting of every round-trip issued,
//! so experiments can assert round-trip counts directly instead of
//! inferring them from platform internals.
//!
//! Batch size is a pure performance knob: collected results are
//! bit-identical for every batch size (see
//! [`CrowdPlatform::publish_tasks`](reprowd_platform::CrowdPlatform::publish_tasks)
//! for the platform-side contract that makes this hold), and `batch_size
//! == 1` reproduces the historical per-row pipeline exactly, API-call
//! counts included.

use crate::error::{Error, Result};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default number of rows per platform round-trip.
///
/// Large enough that E1-scale workloads (n=1000) collapse from ~2000
/// round-trips to ~20; small enough that a crash between batches repays at
/// most 100 rows of crowd work.
pub const DEFAULT_BATCH_SIZE: usize = 100;

/// Default number of batches in flight at once (see
/// [`ExecutionConfig::inflight_batches`]).
///
/// Four overlapped round-trips recover most of the wire-latency loss on a
/// remote platform (E15) while keeping the crash-exposure window — batches
/// accepted by the platform but not yet committed locally, at most this
/// many, since each pipeline worker commits its batch before it claims
/// another — small.
pub const DEFAULT_INFLIGHT_BATCHES: usize = 4;

/// Tunable execution policy of a [`CrowdContext`](crate::CrowdContext).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionConfig {
    /// Rows per platform round-trip in `publish`/`collect`. Must be ≥ 1;
    /// `1` reproduces the per-row pipeline bit-for-bit.
    pub batch_size: usize,
    /// Batch round-trips kept in flight at once by the pipelined execution
    /// engine (see [`crate::pipeline`]). Must be ≥ 1; `1` reproduces the
    /// sequential one-batch-at-a-time engine bit-for-bit, and *every*
    /// depth yields bit-identical columns, cache contents, and call counts
    /// — the platform observes the same ordered call sequence regardless
    /// (the [`IssueGate`](reprowd_platform::IssueGate) contract), so depth
    /// is a pure wall-clock knob. It pays off on latency-bound platforms;
    /// on the in-process simulators it is overhead-neutral.
    pub inflight_batches: usize,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            batch_size: DEFAULT_BATCH_SIZE,
            inflight_batches: DEFAULT_INFLIGHT_BATCHES,
        }
    }
}

impl ExecutionConfig {
    /// A config with the given batch size.
    pub fn with_batch_size(batch_size: usize) -> Self {
        ExecutionConfig { batch_size, ..ExecutionConfig::default() }
    }

    /// Sets the number of batches kept in flight (builder style).
    pub fn with_inflight_batches(mut self, depth: usize) -> Self {
        self.inflight_batches = depth;
        self
    }

    /// Rejects invalid configurations (`batch_size == 0` or
    /// `inflight_batches == 0`).
    pub fn validate(&self) -> Result<()> {
        if self.batch_size == 0 {
            return Err(Error::State("batch_size must be at least 1".into()));
        }
        if self.inflight_batches == 0 {
            return Err(Error::State("inflight_batches must be at least 1".into()));
        }
        Ok(())
    }
}

/// Cumulative round-trip accounting, shared by every clone of a
/// [`CrowdContext`](crate::CrowdContext) and every experiment run on it.
///
/// Counters only ever increase (they survive cache-hit runs unchanged,
/// since cached rows issue no round-trips); diff two [`snapshot`]s to
/// meter a region, the way the E12 bench does.
///
/// [`snapshot`]: BatchMetrics::snapshot
#[derive(Debug, Default)]
pub struct BatchMetrics {
    publish_calls: AtomicU64,
    publish_rows: AtomicU64,
    fetch_calls: AtomicU64,
    fetch_rows: AtomicU64,
    probe_calls: AtomicU64,
    probe_rows: AtomicU64,
}

impl BatchMetrics {
    /// Records one bulk-publish round-trip carrying `rows` tasks.
    pub(crate) fn record_publish(&self, rows: u64) {
        self.publish_calls.fetch_add(1, Ordering::Relaxed);
        self.publish_rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// Records one bulk-fetch round-trip carrying `rows` results.
    pub(crate) fn record_fetch(&self, rows: u64) {
        self.fetch_calls.fetch_add(1, Ordering::Relaxed);
        self.fetch_rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// Records one bulk completion probe covering `rows` tasks. Probes are
    /// free on the platform's `api_calls` meter (they request no crowd
    /// work), so this ledger is the only place a remote adapter's polling
    /// round-trips would show up.
    pub(crate) fn record_probe(&self, rows: u64) {
        self.probe_calls.fetch_add(1, Ordering::Relaxed);
        self.probe_rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> BatchMetricsSnapshot {
        BatchMetricsSnapshot {
            publish_calls: self.publish_calls.load(Ordering::Relaxed),
            publish_rows: self.publish_rows.load(Ordering::Relaxed),
            fetch_calls: self.fetch_calls.load(Ordering::Relaxed),
            fetch_rows: self.fetch_rows.load(Ordering::Relaxed),
            probe_calls: self.probe_calls.load(Ordering::Relaxed),
            probe_rows: self.probe_rows.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`BatchMetrics`]; supports subtraction so a
/// region of interest can be metered as `after.since(&before)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchMetricsSnapshot {
    /// Bulk-publish round-trips issued.
    pub publish_calls: u64,
    /// Task rows carried by those publish round-trips.
    pub publish_rows: u64,
    /// Bulk-fetch round-trips issued.
    pub fetch_calls: u64,
    /// Result rows carried by those fetch round-trips.
    pub fetch_rows: u64,
    /// Bulk completion probes issued (`are_complete`, one per batch).
    /// Free on the platform's `api_calls` meter — see
    /// [`is_complete`](reprowd_platform::CrowdPlatform::is_complete) — but
    /// a wall-clock round-trip on a remote adapter, so metered here.
    pub probe_calls: u64,
    /// Task rows covered by those probes.
    pub probe_rows: u64,
}

impl BatchMetricsSnapshot {
    /// Total batched round-trips that *request crowd work* (publish +
    /// fetch; completion probes are metered separately as
    /// [`probe_calls`](BatchMetricsSnapshot::probe_calls)). Project
    /// creation is accounted by the platform's own [`api_calls`] counter,
    /// not here.
    ///
    /// [`api_calls`]: reprowd_platform::CrowdPlatform::api_calls
    pub fn round_trips(&self) -> u64 {
        self.publish_calls + self.fetch_calls
    }

    /// Mean rows per publish round-trip (0.0 if none were issued).
    pub fn rows_per_publish_call(&self) -> f64 {
        if self.publish_calls == 0 {
            0.0
        } else {
            self.publish_rows as f64 / self.publish_calls as f64
        }
    }

    /// Mean rows per fetch round-trip (0.0 if none were issued).
    pub fn rows_per_fetch_call(&self) -> f64 {
        if self.fetch_calls == 0 {
            0.0
        } else {
            self.fetch_rows as f64 / self.fetch_calls as f64
        }
    }

    /// The counter deltas accumulated since `earlier` was taken.
    pub fn since(&self, earlier: &BatchMetricsSnapshot) -> BatchMetricsSnapshot {
        BatchMetricsSnapshot {
            publish_calls: self.publish_calls - earlier.publish_calls,
            publish_rows: self.publish_rows - earlier.publish_rows,
            fetch_calls: self.fetch_calls - earlier.fetch_calls,
            fetch_rows: self.fetch_rows - earlier.fetch_rows,
            probe_calls: self.probe_calls - earlier.probe_calls,
            probe_rows: self.probe_rows - earlier.probe_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CrowdContext;
    use reprowd_platform::SimPlatform;
    use reprowd_storage::MemoryStore;
    use std::sync::Arc;

    /// The `in_memory_sim` crowd and database, under `config`.
    fn sim_with(config: ExecutionConfig) -> Result<CrowdContext> {
        let platform = Arc::new(SimPlatform::quick(5, 0.85, 1));
        CrowdContext::with_config(platform, Arc::new(MemoryStore::new()), config)
    }

    #[test]
    fn zero_batch_size_rejected() {
        let bad = ExecutionConfig::with_batch_size(0);
        assert!(sim_with(bad).is_err());
        assert!(CrowdContext::in_memory_sim(1).with_batch_size(0).is_err());
        assert!(ExecutionConfig::default().validate().is_ok());
    }

    #[test]
    fn zero_inflight_batches_rejected_and_retuning_preserves_depth() {
        assert!(ExecutionConfig::default().with_inflight_batches(0).validate().is_err());
        assert_eq!(ExecutionConfig::default().inflight_batches, DEFAULT_INFLIGHT_BATCHES);
        let config = ExecutionConfig::with_batch_size(7).with_inflight_batches(2);
        let cc = sim_with(config).unwrap();
        assert_eq!(cc.config().inflight_batches, 2);
        assert!(cc.with_inflight_batches(0).is_err());
        // Re-tuning the batch size keeps the depth (and vice versa).
        assert_eq!(cc.with_batch_size(3).unwrap().config().inflight_batches, 2);
        let deeper = cc.with_inflight_batches(8).unwrap();
        assert_eq!(deeper.batch_size(), 7);
        assert_eq!(deeper.config().inflight_batches, 8);
    }

    #[test]
    fn retuning_preserves_other_knobs() {
        let config = ExecutionConfig::with_batch_size(7).with_inflight_batches(3);
        let cc = sim_with(config.clone()).unwrap();
        let re = cc.with_batch_size(2).unwrap();
        assert_eq!(re.batch_size(), 2);
        assert_eq!(*re.config(), ExecutionConfig { batch_size: 2, ..config });
    }

    #[test]
    fn retuned_shares_metrics() {
        let a = CrowdContext::in_memory_sim(1).with_batch_size(7).unwrap();
        let b = a.with_batch_size(3).unwrap();
        assert_eq!(a.batch_size(), 7);
        assert_eq!(b.batch_size(), 3);
        a.metrics().record_publish(5);
        b.metrics().record_fetch(5);
        let snap = a.batch_metrics();
        assert_eq!(snap, b.batch_metrics());
        assert_eq!(snap.publish_calls, 1);
        assert_eq!(snap.fetch_rows, 5);
    }

    #[test]
    fn probe_metrics_are_separate_from_round_trips() {
        let m = BatchMetrics::default();
        m.record_publish(10);
        m.record_probe(10);
        m.record_probe(10);
        m.record_fetch(10);
        let snap = m.snapshot();
        assert_eq!(snap.probe_calls, 2);
        assert_eq!(snap.probe_rows, 20);
        // Probes never inflate the crowd-work round-trip count.
        assert_eq!(snap.round_trips(), 2);
    }

    #[test]
    fn snapshot_arithmetic() {
        let m = BatchMetrics::default();
        m.record_publish(100);
        m.record_publish(50);
        m.record_fetch(100);
        let before = m.snapshot();
        m.record_fetch(50);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.round_trips(), 1);
        assert_eq!(delta.fetch_rows, 50);
        assert_eq!(before.rows_per_publish_call(), 75.0);
        assert_eq!(m.snapshot().rows_per_fetch_call(), 75.0);
        assert_eq!(BatchMetricsSnapshot::default().rows_per_publish_call(), 0.0);
        assert_eq!(BatchMetricsSnapshot::default().rows_per_fetch_call(), 0.0);
    }
}
