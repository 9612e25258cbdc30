//! # Reprowd — crowdsourced data processing made reproducible
//!
//! Facade crate re-exporting the whole Reprowd workspace behind one
//! dependency. See the crate-level docs of each member for details:
//!
//! * [`core`] — the CrowdData abstraction, CrowdContext, lineage, presenters
//!   (the paper's contribution).
//! * [`operators`] — crowdsourced data processing operators (label, CrowdER
//!   join, transitive join, sort, max).
//! * [`platform`] — the simulated crowdsourcing platform and worker models.
//! * [`quality`] — quality control (majority vote, Dawid–Skene EM, …).
//! * [`storage`] — the embedded crash-safe store behind fault recovery.
//! * [`simjoin`] — string similarity joins (CrowdER's machine pass).
//! * [`datagen`] — seeded synthetic workloads for the experiment suite.
//!
//! ## Quickstart (paper Figure 2)
//!
//! ```
//! use reprowd::prelude::*;
//!
//! // Bob labels three images with 3-worker redundancy and majority vote.
//! let cc = CrowdContext::in_memory_sim(42);
//! let result = cc
//!     .crowddata("image-label")
//!     .unwrap()
//!     .data(vec![val!("img1.jpg"), val!("img2.jpg"), val!("img3.jpg")])
//!     .unwrap()
//!     .presenter(Presenter::image_label("Is this a cat?", &["Yes", "No"]))
//!     .unwrap()
//!     .publish(3)
//!     .unwrap()
//!     .collect()
//!     .unwrap()
//!     .majority_vote()
//!     .unwrap();
//! assert_eq!(result.column("mv").unwrap().len(), 3);
//! ```

// Compile and run the README / ARCHITECTURE code snippets as doctests so
// the documented quickstart and batching examples can never drift from
// the real API.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
mod readme_doctests {}

#[doc = include_str!("../ARCHITECTURE.md")]
#[cfg(doctest)]
mod architecture_doctests {}

pub use reprowd_core as core;
pub use reprowd_datagen as datagen;
pub use reprowd_operators as operators;
pub use reprowd_platform as platform;
pub use reprowd_quality as quality;
pub use reprowd_simjoin as simjoin;
pub use reprowd_storage as storage;

/// The most commonly used items, importable with one `use`.
pub mod prelude {
    pub use reprowd_core::context::CrowdContext;
    pub use reprowd_core::crowddata::CrowdData;
    pub use reprowd_core::exec::{BatchMetricsSnapshot, ExecutionConfig};
    pub use reprowd_core::presenter::Presenter;
    pub use reprowd_core::value::Value;
    pub use reprowd_core::val;
    pub use reprowd_operators::prelude::*;
    pub use reprowd_platform::CrowdPlatform;
    pub use reprowd_storage::{Backend, DiskStore, MemoryStore, SegmentPolicy, SyncPolicy};
}
