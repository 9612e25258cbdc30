//! # reprowd-core
//!
//! The paper's contribution: **CrowdData** — a crowdsourcing experiment
//! modeled as a sequence of manipulations of a tabular dataset — and
//! **CrowdContext**, the entry point tying a crowdsourcing platform, a
//! database, and quality control together (paper Figure 1).
//!
//! The five steps of the paper's running example (Figure 2) map to the
//! builder chain:
//!
//! ```
//! use reprowd_core::context::CrowdContext;
//! use reprowd_core::presenter::Presenter;
//! use reprowd_core::val;
//!
//! let cc = CrowdContext::in_memory_sim(42);
//! let cd = cc.crowddata("image-label").unwrap()
//!     .data(vec![val!("img1.jpg"), val!("img2.jpg"), val!("img3.jpg")]).unwrap() // 1. input
//!     .presenter(Presenter::image_label("Is this a cat?", &["Yes", "No"])).unwrap() // 2. UI
//!     .publish(3).unwrap()        // 3. publish to the platform
//!     .collect().unwrap()         // 4. gather crowd answers
//!     .majority_vote().unwrap();  // 5. quality control
//! assert_eq!(cd.column("mv").unwrap().len(), 3);
//! ```
//!
//! Two properties fall out of the design, and both are load-bearing for
//! reproducibility:
//!
//! * **Sharable** (fault recovery): every `task` and `result` cell is
//!   persisted in the [`CrowdContext`]'s database under a *content-derived*
//!   key — experiment name, presenter fingerprint, and the hash of the row's
//!   object (see [`hash`]). Re-running any prefix of the program, after a
//!   crash or on another researcher's machine, replays from the database
//!   and issues **zero** new platform calls for cached work. Keys do not
//!   depend on call order, which is exactly where TurKit's crash-and-rerun
//!   model breaks (see [`turkit`] for the faithful baseline and the
//!   experiment that demonstrates the difference).
//! * **Examinable** (lineage): every cell can explain itself — which task
//!   produced it, published when, answered by whom, aggregated how
//!   ([`lineage`]). Derived columns (e.g. majority vote) are *not*
//!   persisted; they are recomputed deterministically, mirroring the
//!   paper's design where only `task`/`result` columns hit the database.

#![warn(missing_docs)]

pub mod context;
pub mod crowddata;
pub mod error;
pub mod exec;
pub mod hash;
pub mod lineage;
pub mod pipeline;
pub mod presenter;
pub mod store;
pub mod turkit;
pub mod value;

pub use context::CrowdContext;
pub use crowddata::CrowdData;
pub use error::{Error, Result};
pub use exec::{BatchMetrics, BatchMetricsSnapshot, ExecutionConfig};
pub use lineage::{CellLineage, Derivation};
pub use pipeline::{majority_answer, run_stream, StreamReport, StreamSpec, StreamedRow};
pub use presenter::Presenter;
pub use turkit::CrashAndRerun;
pub use value::Value;
