//! # reprowd-quality
//!
//! Quality control for crowdsourced answers.
//!
//! The Reprowd architecture (paper Figure 1) contains a *Quality Control*
//! component that "implements a number of widely used techniques for
//! improving the quality of crowdsourced answers", with Majority Vote used
//! in the paper's running example. This crate implements the standard
//! ladder of label-aggregation techniques:
//!
//! * [`vote`] — plain majority vote with explicit tie policies.
//! * [`weighted`] — weighted majority vote (weights from gold tasks or EM).
//! * [`onecoin`] — one-coin EM: each worker has a single latent accuracy.
//! * [`ds`] — full Dawid–Skene EM with per-worker confusion matrices.
//! * [`gold`] — worker accuracy from gold-standard tasks.
//!
//! All aggregators consume a [`VoteMatrix`] — the bridge type the
//! `CrowdData` `result` column is converted into — and are deterministic
//! (ties broken by a fixed policy, EM initialized from majority vote), so
//! re-running an experiment reproduces byte-identical aggregates, which the
//! paper's reproducibility story requires.

pub mod ds;
pub mod gold;
pub mod onecoin;
pub mod truth;
pub mod vote;
pub mod weighted;

pub use ds::{DawidSkene, DsConfig, DsModel};
pub use gold::GoldCalibration;
pub use onecoin::{OneCoin, OneCoinConfig, OneCoinModel};
pub use truth::{LabelId, VoteMatrix, WorkerId};
pub use vote::{majority_vote, majority_vote_matrix, TiePolicy};
pub use weighted::{weighted_majority_vote, weighted_majority_vote_matrix};
