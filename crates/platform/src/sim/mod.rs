//! The simulated crowd: worker models, answer models, and the seeded
//! single-world event loop ([`engine`]).

pub mod answer;
pub mod engine;
pub mod latency;
pub mod worker;
