//! The long-lived NASAIC search service behind `nasaic serve`.
//!
//! Every CLI invocation builds a cold [`EvalEngine`](nasaic_core::EvalEngine)
//! and throws it away, losing the ~25x warm-vs-cold advantage the engine
//! benchmarks measure.  This crate keeps the engine alive: a std-only
//! daemon ([`daemon::Daemon`]) accepts scenario configs as jobs over a
//! line-delimited JSON protocol ([`protocol`]), runs them over
//! process-wide shared engines (one per scenario identity — engines are
//! only shareable between runs whose specs, workload and scheduler agree),
//! and exposes a model-driven control plane (`submit`, `cancel`,
//! `show jobs`, `show cache`, `show incumbent <job>`, `shutdown`) driven
//! off the search's [`SearchObserver`](nasaic_core::SearchObserver) event
//! stream.  [`client::Client`] is the matching scripting endpoint.
//!
//! Production constraints the one-shot CLI never faced are handled here:
//!
//! * engine caches are **bounded** (`EngineConfig::accuracy_capacity` /
//!   `hardware_capacity`) with eviction counters surfaced via
//!   `show cache`;
//! * caches **persist** across restarts: a graceful shutdown exports every
//!   engine's caches to the state directory and a restarting daemon
//!   imports them, so restarts change wall time but never outcomes;
//! * the job queue is **bounded** with explicit backpressure — a full
//!   queue rejects the submit with a reason instead of queuing silently;
//! * running jobs **checkpoint** through the core
//!   [`CheckpointSink`](nasaic_core::CheckpointSink) machinery, at a
//!   cadence that keeps checkpoints near 1/20 of a job and with every
//!   checkpoint synced, so a killed daemon resumes its in-flight jobs
//!   bit-identically on restart, and a power cut costs at most one
//!   checkpoint interval.
//!
//! The wire format reuses the hand-rolled JSON of
//! `nasaic_core::scenario::value` — the workspace is offline, so there is
//! no tokio/hyper; just `std::net` and worker threads.

#![deny(missing_docs)]

pub mod client;
pub mod daemon;
pub mod protocol;

pub use client::Client;
pub use daemon::{Daemon, DaemonHandle, ServeConfig};
pub use protocol::Request;

use std::fmt;

/// A serve-side failure: protocol, I/O or job errors.  [`fmt::Display`]
/// renders the message sent to clients / printed by the CLI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    message: String,
}

impl ServeError {
    /// Create an error from a message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::new(e.to_string())
    }
}

impl From<nasaic_core::scenario::ConfigError> for ServeError {
    fn from(e: nasaic_core::scenario::ConfigError) -> Self {
        ServeError::new(e.to_string())
    }
}
