//! # reprowd-platform
//!
//! A crowdsourcing platform, in-process.
//!
//! The original Reprowd drives **PyBossa** — an external server through
//! which human workers receive tasks and submit answers. No crowdsourcing
//! ecosystem exists in this environment, so this crate substitutes the
//! platform with a faithful in-process implementation of the same object
//! model (projects → tasks → task runs, n-assignment redundancy, at most
//! one run per worker per task), plus a **deterministic discrete-event
//! worker simulator** standing in for the human crowd:
//!
//! * [`types`] — [`Project`], [`Task`], [`TaskRun`]: the
//!   PyBossa-equivalent records, including
//!   the lineage fields (who answered, when published/assigned/submitted)
//!   the paper's *examinable* requirement needs.
//! * [`platform`] — the [`CrowdPlatform`] trait the client library codes
//!   against. API-call counting is built in because the paper's headline
//!   property ("rerunning issues no new crowd work") is measured in calls.
//!   The bulk endpoints and the completion wait are required methods.
//! * [`sim`] — the simulator, the one in-process crowd: worker pools with
//!   per-worker ability, bias, latency and abandonment ([`sim::worker`]),
//!   ground-truth-driven answer models ([`sim::answer`]; a payload without
//!   a model is answered with an echo), and a seeded event loop
//!   ([`sim::engine`]) that owns the only drain-then-check wait.
//! * [`failing`] — a fault-injection wrapper that fails after a budget of
//!   calls, used by the crash-recovery experiments (E4).
//! * [`gate`] — the ordered-issue sequencer behind the pipelined execution
//!   engine: overlapped round-trips, effects in deterministic slot order.
//! * [`latency`] — a wire-latency wrapper ([`LatencyPlatform`]) restoring
//!   the round-trip cost a real crowd backend has, so pipelining depth is
//!   measurable (E15).
//!
//! The simulation is *fully deterministic* given a seed — which is stronger
//! than a human crowd and deliberately so: it lets the reproducibility
//! experiments distinguish "same answers because cached" (Reprowd's
//! guarantee) from "same answers by luck".

#![warn(missing_docs)]

pub mod error;
pub mod failing;
pub mod gate;
pub mod latency;
pub mod platform;
pub mod sim;
pub mod types;

pub use error::{Error, Result};
pub use failing::FailingPlatform;
pub use gate::{IssueGate, IssueTurn};
pub use latency::LatencyPlatform;
pub use platform::CrowdPlatform;
pub use sim::answer::AnswerModel;
pub use sim::engine::{SimConfig, SimPlatform};
pub use sim::worker::{WorkerPool, WorkerProfile};
pub use types::{Project, ProjectId, SimTime, Task, TaskId, TaskRun, TaskSpec, WorkerId};
