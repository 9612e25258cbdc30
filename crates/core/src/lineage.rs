//! Lineage — the *examinable* requirement.
//!
//! The paper: "CrowdData not only contains complete lineage information
//! about crowdsourced answers" — when were the tasks published, which
//! workers did them (Figure 3, lines 11–16). Every cell of a CrowdData
//! table can produce a [`CellLineage`] tracing it back through the
//! derivation chain: aggregated label → task runs (worker, timestamps) →
//! published task (platform id, publish time) → source object.

use crate::crowddata::CrowdData;
use crate::error::{Error, Result};
use crate::value::Value;
use reprowd_platform::types::{Task, TaskRun, WorkerId};
use serde::{Deserialize, Serialize};

/// How a cell came to be.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum Derivation {
    /// The input object itself (step 1).
    Source,
    /// Published as a crowdsourcing task (step 3).
    Published {
        /// The platform task record (contains `published_at`).
        task: Task,
    },
    /// Collected task runs (step 4).
    Collected {
        /// Every worker's run, in submission order.
        runs: Vec<TaskRun>,
    },
    /// Aggregated from runs by a quality-control method (step 5).
    Aggregated {
        /// Method name (`"mv"`, `"em"`, `"ds"`, `"wmv"`).
        method: String,
        /// The runs the aggregate consumed.
        inputs: Vec<TaskRun>,
        /// The aggregate value.
        output: Value,
    },
    /// Computed by a user-supplied `map` function.
    Mapped {
        /// The derived column name.
        column: String,
        /// The cell value.
        output: Value,
    },
}

/// Full lineage of one cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellLineage {
    /// Experiment the cell belongs to.
    pub experiment: String,
    /// Row index.
    pub row: usize,
    /// The row's cache key hash.
    pub row_hash: String,
    /// The row's source object.
    pub object: Value,
    /// Column the cell lives in.
    pub column: String,
    /// The derivation.
    pub derivation: Derivation,
}

impl CellLineage {
    /// The workers who contributed to this cell, ascending, deduplicated
    /// (Figure 3's "which workers did the tasks?").
    pub fn workers(&self) -> Vec<WorkerId> {
        let runs = match &self.derivation {
            Derivation::Collected { runs } => runs,
            Derivation::Aggregated { inputs, .. } => inputs,
            _ => return Vec::new(),
        };
        let mut ws: Vec<WorkerId> = runs.iter().map(|r| r.worker_id).collect();
        ws.sort_unstable();
        ws.dedup();
        ws
    }

    /// When the underlying task was published, if this cell descends from
    /// one (Figure 3's "when were the tasks published?").
    pub fn published_at(&self) -> Option<u64> {
        match &self.derivation {
            Derivation::Published { task } => Some(task.published_at),
            _ => None,
        }
    }

    /// Human-readable one-cell report.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "experiment {:?} row {} column {:?}\n  object: {}\n",
            self.experiment,
            self.row,
            self.column,
            self.object
        );
        match &self.derivation {
            Derivation::Source => out.push_str("  source object (step 1)\n"),
            Derivation::Published { task } => {
                out.push_str(&format!(
                    "  task {} published at t={}ms (project {})\n",
                    task.id, task.published_at, task.project_id
                ));
            }
            Derivation::Collected { runs } => {
                for r in runs {
                    out.push_str(&format!(
                        "  worker {} answered {} (assigned t={}ms, submitted t={}ms)\n",
                        r.worker_id, r.answer, r.assigned_at, r.submitted_at
                    ));
                }
            }
            Derivation::Aggregated { method, inputs, output } => {
                out.push_str(&format!("  {} over {} runs -> {}\n", method, inputs.len(), output));
                for r in inputs {
                    out.push_str(&format!("    worker {} said {}\n", r.worker_id, r.answer));
                }
            }
            Derivation::Mapped { column, output } => {
                out.push_str(&format!("  map({column:?}) -> {output}\n"));
            }
        }
        out
    }
}

impl CrowdData {
    /// Lineage of the cell at (`row`, `column`).
    ///
    /// `column` may be `"object"`, `"task"`, `"result"`, or a derived
    /// column. Derived columns whose values came from an aggregator produce
    /// [`Derivation::Aggregated`] with the consumed runs attached.
    pub fn lineage(&self, row: usize, column: &str) -> Result<CellLineage> {
        let r = self
            .row(row)
            .ok_or_else(|| Error::State(format!("row {row} out of range")))?;
        let derivation = match column {
            "object" => Derivation::Source,
            "task" => {
                let cell = r.task.as_ref().ok_or_else(|| {
                    Error::MissingColumn(format!("row {row} has no task cell yet"))
                })?;
                Derivation::Published { task: cell.decode()?.task }
            }
            "result" => {
                let stored = r.result.as_ref().ok_or_else(|| {
                    Error::MissingColumn(format!("row {row} has no result cell yet"))
                })?;
                Derivation::Collected { runs: stored.runs.clone() }
            }
            derived => {
                let cell = r
                    .derived
                    .get(derived)
                    .ok_or_else(|| Error::MissingColumn(derived.to_string()))?;
                match derived {
                    "mv" | "em" | "ds" | "wmv" => Derivation::Aggregated {
                        method: derived.to_string(),
                        inputs: r.result.as_ref().map(|s| s.runs.clone()).unwrap_or_default(),
                        output: cell.clone(),
                    },
                    other => Derivation::Mapped {
                        column: other.to_string(),
                        output: cell.clone(),
                    },
                }
            }
        };
        Ok(CellLineage {
            experiment: self.name().to_string(),
            row,
            row_hash: r.hash.clone(),
            object: r.object.clone(),
            column: column.to_string(),
            derivation,
        })
    }

    /// Lineage for every row of a column (the Figure 3 loop).
    pub fn column_lineage(&self, column: &str) -> Result<Vec<CellLineage>> {
        (0..self.len()).map(|i| self.lineage(i, column)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CrowdContext;
    use crate::presenter::Presenter;
    use crate::val;

    fn labeled(cc: &CrowdContext) -> CrowdData {
        let objects: Vec<Value> = (0..2)
            .map(|i| {
                val!({
                    "url": format!("img{i}.jpg"),
                    "_sim": {"kind": "label", "truth": 0, "labels": ["Yes", "No"], "difficulty": 0.0}
                })
            })
            .collect();
        cc.crowddata("lin")
            .unwrap()
            .data(objects)
            .unwrap()
            .presenter(Presenter::image_label("Q?", &["Yes", "No"]))
            .unwrap()
            .publish(3)
            .unwrap()
            .collect()
            .unwrap()
            .majority_vote()
            .unwrap()
    }

    #[test]
    fn task_lineage_has_publish_time() {
        let cc = CrowdContext::in_memory_sim(20);
        let cd = labeled(&cc);
        let lin = cd.lineage(0, "task").unwrap();
        assert!(lin.published_at().is_some());
        assert!(lin.describe().contains("published at"));
    }

    #[test]
    fn result_lineage_names_all_workers() {
        let cc = CrowdContext::in_memory_sim(21);
        let cd = labeled(&cc);
        let lin = cd.lineage(0, "result").unwrap();
        let workers = lin.workers();
        assert_eq!(workers.len(), 3, "3 distinct workers: {workers:?}");
        assert!(lin.describe().contains("worker"));
    }

    #[test]
    fn aggregate_lineage_links_runs_to_output() {
        let cc = CrowdContext::in_memory_sim(22);
        let cd = labeled(&cc);
        let lin = cd.lineage(1, "mv").unwrap();
        match &lin.derivation {
            Derivation::Aggregated { method, inputs, output } => {
                assert_eq!(method, "mv");
                assert_eq!(inputs.len(), 3);
                assert_eq!(output, &val!("Yes"));
            }
            other => panic!("expected aggregated, got {other:?}"),
        }
        assert_eq!(lin.workers().len(), 3);
    }

    #[test]
    fn object_lineage_is_source() {
        let cc = CrowdContext::in_memory_sim(23);
        let cd = labeled(&cc);
        let lin = cd.lineage(0, "object").unwrap();
        assert_eq!(lin.derivation, Derivation::Source);
        assert_eq!(lin.published_at(), None);
        assert!(lin.workers().is_empty());
    }

    #[test]
    fn mapped_lineage() {
        let cc = CrowdContext::in_memory_sim(24);
        let cd = labeled(&cc).map("upper", |r| val!(r.object["url"].as_str().unwrap().to_uppercase())).unwrap();
        let lin = cd.lineage(0, "upper").unwrap();
        assert!(matches!(lin.derivation, Derivation::Mapped { .. }));
    }

    #[test]
    fn errors_on_missing_cells() {
        let cc = CrowdContext::in_memory_sim(25);
        let cd = cc.crowddata("lin2").unwrap().data(vec![val!(1)]).unwrap();
        assert!(cd.lineage(0, "task").is_err());
        assert!(cd.lineage(0, "mv").is_err());
        assert!(cd.lineage(5, "object").is_err());
    }

    #[test]
    fn column_lineage_covers_all_rows() {
        let cc = CrowdContext::in_memory_sim(26);
        let cd = labeled(&cc);
        let lins = cd.column_lineage("result").unwrap();
        assert_eq!(lins.len(), 2);
        // Every crowdsourced answer is traceable to a worker: the paper's
        // examinability claim, verbatim.
        for lin in &lins {
            assert!(!lin.workers().is_empty());
        }
    }

    #[test]
    fn lineage_serializes() {
        let cc = CrowdContext::in_memory_sim(27);
        let cd = labeled(&cc);
        let lin = cd.lineage(0, "mv").unwrap();
        let s = serde_json::to_string(&lin).unwrap();
        let back: CellLineage = serde_json::from_str(&s).unwrap();
        assert_eq!(back, lin);
    }
}
