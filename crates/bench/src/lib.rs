//! # reprowd-bench
//!
//! The experiment harness. Every figure/claim of the paper maps to one
//! `harness = false` bench target (E1–E16, indexed in ARCHITECTURE.md's
//! "Experiment suite"; E13–E16 record their numbers to `BENCH_E*.json`);
//! three Criterion targets micro-benchmark the substrates. Run everything with
//! `cargo bench --workspace`, or one experiment with
//! `cargo bench -p reprowd-bench --bench exp6_crowder_join`.
//!
//! This lib holds the shared plumbing: table printing, timing, and the
//! standard simulated-crowd setups the experiments reuse.

use reprowd_core::context::CrowdContext;
use reprowd_core::value::Value;
use reprowd_platform::{CrowdPlatform, SimConfig, SimPlatform, WorkerPool};
use reprowd_storage::MemoryStore;
use std::sync::Arc;
use std::time::Instant;

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str, paper_ref: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("reproduces: {paper_ref}");
    println!("================================================================");
}

/// Prints a fixed-width table: header then rows.
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Times a closure, returning (result, milliseconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// A fresh in-memory context over `n_workers` uniform-ability workers.
pub fn sim_context(n_workers: usize, ability: f64, seed: u64) -> (CrowdContext, Arc<SimPlatform>) {
    let platform = Arc::new(SimPlatform::quick(n_workers, ability, seed));
    let cc = CrowdContext::new(
        Arc::clone(&platform) as Arc<dyn CrowdPlatform>,
        Arc::new(MemoryStore::new()),
    )
    .expect("context");
    (cc, platform)
}

/// A context over an explicit worker pool.
pub fn pool_context(pool: WorkerPool, seed: u64) -> (CrowdContext, Arc<SimPlatform>) {
    let platform = Arc::new(SimPlatform::new(SimConfig::new(pool, seed)));
    let cc = CrowdContext::new(
        Arc::clone(&platform) as Arc<dyn CrowdPlatform>,
        Arc::new(MemoryStore::new()),
    )
    .expect("context");
    (cc, platform)
}

/// Figure-2-style image objects with embedded label ground truth.
pub fn label_objects(n: usize, difficulty: f64) -> Vec<Value> {
    (0..n)
        .map(|i| {
            serde_json::json!({
                "url": format!("img{i}.jpg"),
                "_sim": {"kind": "label", "truth": (i % 2), "labels": ["Yes", "No"], "difficulty": difficulty}
            })
        })
        .collect()
}

/// Accuracy of a Yes/No label column against `truth[i] = i % 2`.
pub fn label_accuracy(labels: &[Value]) -> f64 {
    if labels.is_empty() {
        return 0.0;
    }
    let correct = labels
        .iter()
        .enumerate()
        .filter(|(i, v)| v.as_str() == Some(if i % 2 == 0 { "Yes" } else { "No" }))
        .count();
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_objects_shape() {
        let objs = label_objects(4, 0.2);
        assert_eq!(objs.len(), 4);
        assert_eq!(objs[1]["_sim"]["truth"], 1);
    }

    #[test]
    fn label_accuracy_counts() {
        let labels = vec![
            serde_json::json!("Yes"),
            serde_json::json!("Yes"), // wrong (should be "No")
            serde_json::json!("Yes"),
            serde_json::json!("No"),
        ];
        assert!((label_accuracy(&labels) - 0.75).abs() < 1e-12);
        assert_eq!(label_accuracy(&[]), 0.0);
    }

    #[test]
    fn timed_returns_value() {
        let (v, ms) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }

    #[test]
    fn contexts_construct() {
        let (cc, _) = sim_context(3, 0.9, 1);
        assert!(cc.experiments().unwrap().is_empty());
        let (cc, _) = pool_context(WorkerPool::mixture(1, 1, 1, 2), 3);
        assert!(cc.experiments().unwrap().is_empty());
    }
}
