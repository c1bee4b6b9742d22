//! # xbar-serve
//!
//! The multi-tenant attack-campaign service: a long-running TCP server
//! that hosts a registry of victim crossbar oracles and serves budgeted
//! query streams to many concurrent attack sessions — the paper's
//! query-metered black-box threat model turned into traffic.
//!
//! ## Determinism contract
//!
//! A session's results are a pure function of `(victim, session seed,
//! session query index)` — the service reuses the oracle's own noise
//! keying through [`xbar_core::oracle::Oracle::observe_batch_keyed`],
//! so a session's [`xbar_core::oracle::QueryRecord`] stream is
//! bit-identical whether it is served alone, interleaved with other
//! sessions, driven from several connections at once, or resumed after
//! a server restart. The float payloads survive the wire because both
//! codecs round-trip `f64` exactly: [`wire`] for requests (dense rows
//! as the f64s' own bits, other rows as shortest round-trip digits out
//! and `str::parse` in) and the vendored `serde_json` for responses
//! (`float_roundtrip`).
//!
//! ## Architecture
//!
//! * [`protocol`] — the newline-delimited JSON wire protocol
//!   ([`Request`] / [`Response`]).
//! * [`wire`] — the typed [`Request`] codec on the query path, with
//!   no `serde::Value` tree, equivalent to the `serde_json` shim by
//!   contract on decimal rows, plus the exact bit form of a row.
//! * [`registry`] — [`VictimRegistry`]: named, deployed, non-drifting
//!   oracles shared by every session.
//! * [`session`] — [`SessionManager`]: per-session budgets and query
//!   indices with optional crash-tolerant JSONL persistence
//!   (`xbar-runtime`'s appender), so a reconnecting client resumes
//!   exactly where it died.
//! * [`server`] — [`Server`]: the TCP accept loop, admission control,
//!   and graceful drain. Each connection's thread evaluates its own
//!   query requests, one keyed batch per request.
//! * [`metrics`] — the live telemetry plane's shard layout
//!   ([`metrics::ServeMetrics`]): per-handler metric shards merged on
//!   scrape, exposed through the read-only `stats` op and the periodic
//!   `--metrics` snapshot file.
//! * [`client`] — [`Client`]: a small blocking client used by the
//!   bench driver, the CI smoke test, and the integration tests.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod client;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod session;
pub mod wire;

pub use client::Client;
pub use metrics::{ServeMetrics, METRICS_RECORD_KIND};
pub use protocol::{codes, Request, Response, SessionStatus};
pub use registry::VictimRegistry;
pub use server::{ServeConfig, Server};
pub use session::{SessionManager, SessionRecord};
pub use wire::{decode_request, encode_request, WireError};

/// Errors from the service and its client.
#[derive(Debug)]
pub enum ServeError {
    /// Socket or filesystem failure.
    Io(std::io::Error),
    /// A malformed wire message or an unexpected response shape.
    Protocol(String),
    /// The server answered a request with an error response.
    Rejected {
        /// Machine-readable code (one of [`protocol::codes`]).
        code: String,
        /// Human-readable message.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Rejected { code, message } => write!(f, "rejected ({code}): {message}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<serde_json::Error> for ServeError {
    fn from(e: serde_json::Error) -> Self {
        ServeError::Protocol(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
