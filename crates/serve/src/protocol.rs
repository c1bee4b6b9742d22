//! The wire protocol: newline-delimited JSON over TCP.
//!
//! Every line the client sends is one [`Request`]; every line the
//! server answers is one [`Response`], in request order. Both sides are
//! flat structs with optional fields (rather than tagged enums) because
//! the vendored serde derive supports exactly named-field structs and
//! unit enums — and because it keeps the protocol trivially greppable
//! on the wire.
//!
//! A session's life:
//!
//! ```text
//! → {"op":"hello","session":"s1","victim":"mnist","seed":7,"budget":100}
//! ← {"ok":true,"op":"hello","status":{"session":"s1","victim":"mnist","seed":7,"budget":100,"used":0},...}
//! → {"op":"query","session":"s1","inputs":[[0.1,0.9,...],[...]]}
//! ← {"ok":true,"op":"query","records":[{"index":0,"observation":{...}},...],...}
//! → {"op":"close","session":"s1"}
//! ← {"ok":true,"op":"close",...}
//! ```
//!
//! Reconnecting with the same `session` id resumes the budget remainder
//! and query index (`hello` may then omit `victim`/`seed`/`budget`; if
//! given they must match). Error responses set `ok:false` plus a
//! machine-readable `code` from [`codes`].
//!
//! ## Codecs
//!
//! [`Request`] lines go through the typed codec in [`crate::wire`] in
//! both directions (the client's encoder, [`crate::wire::decode_request`]
//! in the server), with no `serde::Value` tree.
//!
//! An `inputs` row is either a decimal array or one string, the bit
//! form: the base64 of the row's f64s as little-endian bytes, exact by
//! construction. [`crate::Client::query`] sends dense rows as bits and
//! sparse ones (a one-hot probe) as decimals. The same row `[0.5,-1.0]`
//! twice, once in each form:
//!
//! ```text
//! → {"op":"query","session":"s1","inputs":["AAAAAAAA4D8AAAAAAADwvw==",[0.5,-1.0]]}
//! ```
//!
//! The vendored `serde_json` shim stays the reference for decimal
//! lines: [`crate::wire::encode_request`] writes its bytes exactly, and
//! decimal lines are accepted and rejected exactly as the shim does,
//! with equal values (see the [`crate::wire`] docs for the shim's quirks
//! this includes); a string row is the bit form. A line that fails to
//! decode, a malformed bit row included, is answered with
//! [`codes::USAGE`]. That is why `Request` keeps its serde derives: they
//! are the reference the codec is tested against.
//!
//! [`Response`] stays on the shim in both directions: it carries a
//! free-form `stats` value, and its encode (`serve.encode_ns`) is about
//! a fifth of the server's time on a bulk request of 64 dense rows.

use serde::{Deserialize, Serialize};
use xbar_core::oracle::QueryRecord;

/// Machine-readable error codes carried in [`Response::code`].
pub mod codes {
    /// Malformed request (missing field, bad dimensions, unknown op).
    pub const USAGE: &str = "usage";
    /// `hello` named a victim the registry doesn't host.
    pub const UNKNOWN_VICTIM: &str = "unknown_victim";
    /// `query`/`close` named a session that was never opened here.
    pub const UNKNOWN_SESSION: &str = "unknown_session";
    /// Admission control: the attached-session table is full.
    pub const SESSION_TABLE_FULL: &str = "session_table_full";
    /// The batch would overrun the session's query budget; nothing was
    /// consumed.
    pub const BUDGET_EXHAUSTED: &str = "budget_exhausted";
    /// A resume `hello` contradicted the session's stored victim/seed/
    /// budget.
    pub const CONFLICT: &str = "conflict";
    /// The server is draining and accepts no new work.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// The server failed internally (an evaluation error or panic);
    /// the batch's reservation was released.
    pub const INTERNAL: &str = "internal";
    /// The request line exceeds the server's length bound (see
    /// [`crate::ServeConfig::max_inflight`]); the server closes the
    /// connection after answering.
    pub const TOO_LARGE: &str = "too_large";
}

/// One client request line.
///
/// `op` selects the operation; the other fields are that operation's
/// arguments:
///
/// * `"hello"` — open or resume a session: `session` (required),
///   `victim` + `seed` (required for a new session), `budget`
///   (optional, `None` = unlimited).
/// * `"query"` — issue a batch: `session` + non-empty `inputs`.
/// * `"close"` — release this connection's hold on a session; the
///   last hold's release detaches it (its state persists for resume).
/// * `"stats"` — scrape the live metrics. Read-only: consumes no
///   budget, needs no session, and is admitted even when the session
///   table is full or the server is draining. `format` selects the
///   encoding: absent/`"json"` fills [`Response::stats`], `"prom"`
///   fills [`Response::text`] with Prometheus exposition format.
/// * `"shutdown"` — ask the server to drain and exit (used by the
///   bench driver and CI smoke test).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Operation: `hello` | `query` | `close` | `stats` | `shutdown`.
    pub op: String,
    /// Session id (client-chosen, stable across reconnects).
    pub session: Option<String>,
    /// Victim name in the server's registry (`hello` on a new session).
    pub victim: Option<String>,
    /// Session noise seed (`hello` on a new session).
    pub seed: Option<u64>,
    /// Query budget (`hello`; `None` = unlimited).
    pub budget: Option<u64>,
    /// Query inputs, one vector per query (`query`).
    pub inputs: Option<Vec<Vec<f64>>>,
    /// Output encoding for `stats`: `"json"` (default) or `"prom"`.
    pub format: Option<String>,
}

impl Request {
    /// A bare request with only `op` set.
    pub fn new(op: &str) -> Self {
        Request {
            op: op.to_string(),
            session: None,
            victim: None,
            seed: None,
            budget: None,
            inputs: None,
            format: None,
        }
    }
}

/// A session's authoritative accounting, as the server sees it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionStatus {
    /// Session id.
    pub session: String,
    /// Victim the session is bound to.
    pub victim: String,
    /// The session's noise seed.
    pub seed: u64,
    /// Query budget (`None` = unlimited).
    pub budget: Option<u64>,
    /// Queries consumed so far — also the next global query index.
    pub used: u64,
}

/// One server response line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Whether the request succeeded.
    pub ok: bool,
    /// Echo of the request's `op`.
    pub op: String,
    /// Error code (one of [`codes`]); present iff `ok` is false.
    pub code: Option<String>,
    /// Human-readable error; present iff `ok` is false.
    pub error: Option<String>,
    /// Session accounting after the request (`hello`, `query`, `close`).
    pub status: Option<SessionStatus>,
    /// The batch's results, in input order (`query`).
    pub records: Option<Vec<QueryRecord>>,
    /// Live metrics snapshot (`stats` with JSON format).
    pub stats: Option<serde::Value>,
    /// Pre-rendered text payload (`stats` with `"prom"` format).
    pub text: Option<String>,
}

impl Response {
    /// A success response for `op`.
    pub fn success(op: &str) -> Self {
        Response {
            ok: true,
            op: op.to_string(),
            code: None,
            error: None,
            status: None,
            records: None,
            stats: None,
            text: None,
        }
    }

    /// An error response for `op` with a [`codes`] code and message.
    pub fn failure(op: &str, code: &str, message: impl Into<String>) -> Self {
        Response {
            ok: false,
            op: op.to_string(),
            code: Some(code.to_string()),
            error: Some(message.into()),
            status: None,
            records: None,
            stats: None,
            text: None,
        }
    }

    /// Builder-style setter for [`Response::status`].
    #[must_use]
    pub fn with_status(mut self, status: SessionStatus) -> Self {
        self.status = Some(status);
        self
    }

    /// Builder-style setter for [`Response::records`].
    #[must_use]
    pub fn with_records(mut self, records: Vec<QueryRecord>) -> Self {
        self.records = Some(records);
        self
    }

    /// Builder-style setter for [`Response::stats`].
    #[must_use]
    pub fn with_stats(mut self, stats: serde::Value) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Builder-style setter for [`Response::text`].
    #[must_use]
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.text = Some(text.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_with_absent_fields() {
        let mut req = Request::new("hello");
        req.session = Some("s1".into());
        req.seed = Some(7);
        let line = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(back, req);
        assert!(back.inputs.is_none());
    }

    #[test]
    fn stats_response_roundtrips_arbitrary_value() {
        let snapshot = serde::Value::Object(vec![(
            "victims".to_string(),
            serde::Value::Object(vec![(
                "mnist".to_string(),
                serde::Value::Object(vec![(
                    "counters".to_string(),
                    serde::Value::Object(vec![(
                        "serve.queries".to_string(),
                        serde::Value::U64(42),
                    )]),
                )]),
            )]),
        )]);
        let resp = Response::success("stats").with_stats(snapshot.clone());
        let line = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back.stats, Some(snapshot));
        let prom = Response::success("stats").with_text("# TYPE x counter\nx 1\n");
        let line = serde_json::to_string(&prom).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back.text.as_deref(), Some("# TYPE x counter\nx 1\n"));
    }

    #[test]
    fn response_roundtrips_with_records() {
        use xbar_core::oracle::Observation;
        let resp = Response::success("query").with_records(vec![QueryRecord {
            index: 3,
            observation: Observation {
                output: Some(vec![0.125, -7.5e-3]),
                label: Some(0),
                power: 0.25,
            },
        }]);
        let line = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back, resp);
    }
}
