//! Platform error type.

use std::fmt;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by a crowdsourcing platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Referenced project does not exist.
    UnknownProject(u64),
    /// Referenced task does not exist.
    UnknownTask(u64),
    /// The simulation cannot make progress (e.g. every worker already did
    /// every open task and redundancy is still unmet).
    Starved(String),
    /// A malformed request (e.g. zero assignments requested).
    InvalidRequest(String),
    /// Injected by [`FailingPlatform`](crate::failing::FailingPlatform) to
    /// emulate a crash mid-experiment.
    Injected(String),
    /// A pipelined call was cancelled before issuing because an earlier
    /// call in the same ordered stream failed (see
    /// [`IssueGate`](crate::gate::IssueGate)). The platform never saw it.
    Cancelled(String),
    /// The platform answered outside its contract (e.g. a bulk endpoint
    /// returned the wrong number of items).
    BadResponse(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownProject(id) => write!(f, "unknown project {id}"),
            Error::UnknownTask(id) => write!(f, "unknown task {id}"),
            Error::Starved(msg) => write!(f, "simulation starved: {msg}"),
            Error::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            Error::Injected(msg) => write!(f, "injected fault: {msg}"),
            Error::Cancelled(msg) => write!(f, "cancelled: {msg}"),
            Error::BadResponse(msg) => write!(f, "bad platform response: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(Error::UnknownProject(3).to_string().contains('3'));
        assert!(Error::UnknownTask(9).to_string().contains('9'));
        assert!(Error::Starved("x".into()).to_string().contains("starved"));
        assert!(Error::InvalidRequest("y".into()).to_string().contains("invalid"));
        assert!(Error::Injected("z".into()).to_string().contains("fault"));
        assert!(Error::Cancelled("w".into()).to_string().contains("cancelled"));
        assert!(Error::BadResponse("v".into()).to_string().contains("bad"));
    }
}
