//! # reprowd-operators
//!
//! Crowdsourced data processing operators on top of CrowdData.
//!
//! The paper: "Most of the crowdsourcing works in the database field are
//! centered around the implementations of crowdsourced data processing
//! operators ... how to combine computers and crowds to implement
//! traditional database operators such as join, sort, and max", and: "We
//! have implemented two crowdsourced join algorithms (Wang et al. 2012;
//! Wang et al. 2013)". This crate provides those two algorithms and the
//! standard operator set around them, all built on the public CrowdData
//! API — so every operator inherits the sharable (fault-recovery) and
//! examinable (lineage) properties *for free*, which is the paper's core
//! claim about the abstraction:
//!
//! * [`label`] — crowd labeling (the Figure 2 workload as an operator).
//! * [`join::crowder`] — CrowdER (PVLDB 2012): machine similarity pass +
//!   crowd verification of the grey zone.
//! * [`join::transitive`] — transitivity-aware joins (SIGMOD 2013): deduce
//!   labels from already-answered pairs; ask the crowd only when deduction
//!   fails.
//! * [`sort`] — pairwise-comparison sort with Copeland aggregation.
//! * [`max`] — tournament max / top-k.
//! * [`cluster`] — union-find clustering and pairwise precision/recall/F1.
//!
//! ## Simulation seam
//!
//! Operators that build *derived* objects (pairs) accept a `decorate`
//! closure invoked for every constructed object; simulations use it to
//! embed the hidden ground truth (`"_sim"` answer model) that a human crowd
//! would perceive by looking at the task. Production use passes
//! [`no_sim`].

pub mod cluster;
pub mod join;
pub mod label;
pub mod max;
pub mod sort;

pub use cluster::{clusters_from_pairs, pairwise_prf, UnionFind};

/// The most commonly used operator items.
pub mod prelude {
    pub use crate::cluster::{clusters_from_pairs, pairwise_prf, UnionFind};
    pub use crate::join::crowder::{crowder_join, CrowdErConfig, CrowdErResult};
    pub use crate::join::transitive::{transitive_join, TransitiveConfig, TransitiveResult};
    pub use crate::label::{crowd_label, CrowdLabelConfig, CrowdLabelResult};
    pub use crate::max::{crowd_max, CrowdMaxConfig, CrowdMaxResult};
    pub use crate::no_sim;
    pub use crate::sort::{crowd_sort, CrowdSortConfig, CrowdSortResult};
}

use reprowd_core::value::Value;

/// The identity `decorate` hook: no simulation metadata is attached
/// (production crowds look at the task content itself).
pub fn no_sim(_left: usize, _right: usize, _object: &mut Value) {}
