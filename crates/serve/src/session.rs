//! Session accounting: budgets, query indices, and crash-tolerant
//! persistence.
//!
//! Each session owns a noise seed and a monotonically increasing global
//! query index; queries are *reserved* here (all-or-nothing against the
//! budget, exactly like [`xbar_core::oracle::Oracle::query_batch`])
//! before they are evaluated, so the index a query gets is independent
//! of which connection evaluates it, and when.
//!
//! Persistence reuses the runtime's crash-tolerant JSONL machinery
//! ([`JsonlAppender`] / [`read_jsonl`]): one [`SessionRecord`] is
//! appended per state change, the latest record per session wins on
//! load, and a torn final line (killed server) is repaired on reopen.
//! Reserved-but-unanswered queries count as consumed — a reconnecting
//! client resumes *after* them, which keeps every index it ever saw
//! stable.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use xbar_obs::MetricsShard;
use xbar_runtime::jsonl::{read_jsonl, JsonlAppender};

use crate::protocol::{codes, SessionStatus};
use crate::registry::VictimRegistry;
use crate::{Result, ServeError};

/// The `kind` tag stamped on every persisted [`SessionRecord`].
pub const SESSION_RECORD_KIND: &str = "xbar-serve-session";

/// One persisted session-state line: a full snapshot (not a delta), so
/// the last record per session id is the whole truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionRecord {
    /// Always [`SESSION_RECORD_KIND`].
    pub kind: String,
    /// Session id.
    pub session: String,
    /// Victim the session is bound to.
    pub victim: String,
    /// The session's noise seed.
    pub seed: u64,
    /// Query budget (`None` = unlimited).
    pub budget: Option<u64>,
    /// Queries reserved so far — the next query index.
    pub used: u64,
}

/// A request the session manager refused, with its wire error code.
#[derive(Debug, Clone, PartialEq)]
pub struct Reject {
    /// One of [`codes`].
    pub code: &'static str,
    /// Human-readable reason.
    pub message: String,
}

impl Reject {
    fn new(code: &'static str, message: impl Into<String>) -> Self {
        Reject {
            code,
            message: message.into(),
        }
    }
}

#[derive(Debug, Clone)]
struct SessionState {
    victim: String,
    seed: u64,
    budget: Option<u64>,
    used: u64,
}

impl SessionState {
    fn status(&self, id: &str) -> SessionStatus {
        SessionStatus {
            session: id.to_string(),
            victim: self.victim.clone(),
            seed: self.seed,
            budget: self.budget,
            used: self.used,
        }
    }

    /// A resume may omit the session's keying; values it does supply
    /// must match the stored state ([`codes::CONFLICT`] otherwise).
    fn check_resume(
        &self,
        id: &str,
        victim: Option<&str>,
        seed: Option<u64>,
        budget: Option<u64>,
    ) -> std::result::Result<(), Reject> {
        if victim.is_some_and(|v| v != self.victim)
            || seed.is_some_and(|s| s != self.seed)
            || (budget.is_some() && budget != self.budget)
        {
            return Err(Reject::new(
                codes::CONFLICT,
                format!("session {id:?} exists with different victim/seed/budget"),
            ));
        }
        Ok(())
    }
}

/// An attached session's accounting and the number of connections
/// holding it (always at least 1).
struct Attached {
    state: SessionState,
    holders: usize,
}

/// Session table with admission control and optional persistence.
///
/// *Attached* sessions have a live connection and count against
/// `max_sessions`; *detached* sessions (closed, disconnected, or loaded
/// from the journal) keep their accounting and re-attach on the next
/// `hello` with the same id. Each connection that opens a session holds
/// it once and [`SessionManager::detach`] releases one hold, so a
/// session two connections drive stays attached until both have let go;
/// it still takes one admission slot.
pub struct SessionManager {
    max_sessions: usize,
    attached: HashMap<String, Attached>,
    detached: HashMap<String, SessionState>,
    journal: Option<JsonlAppender>,
    metrics: Option<Arc<MetricsShard>>,
}

impl SessionManager {
    /// An in-memory manager admitting up to `max_sessions` attached
    /// sessions.
    pub fn new(max_sessions: usize) -> Self {
        SessionManager {
            max_sessions,
            attached: HashMap::new(),
            detached: HashMap::new(),
            journal: None,
            metrics: None,
        }
    }

    /// Installs a live-metrics shard: fresh sessions count
    /// `serve.sessions` and every durable journal write is timed into
    /// `serve.journal_write_ns`, both under the session's victim.
    /// Callers already serialise on the session-table lock, so one
    /// shared shard adds no contention.
    pub fn set_metrics_shard(&mut self, shard: Arc<MetricsShard>) {
        self.metrics = Some(shard);
    }

    /// A persistent manager journaling to `path`. An existing journal
    /// is loaded first (last record per session wins, torn tail
    /// repaired) and its sessions start detached, ready to resume.
    pub fn with_journal(max_sessions: usize, path: &Path) -> Result<Self> {
        let mut manager = SessionManager::new(max_sessions);
        let journal = if path.exists() {
            let records: Vec<SessionRecord> =
                read_jsonl(path).map_err(|e| ServeError::Protocol(e.to_string()))?;
            for record in records {
                if record.kind != SESSION_RECORD_KIND {
                    continue;
                }
                manager.detached.insert(
                    record.session,
                    SessionState {
                        victim: record.victim,
                        seed: record.seed,
                        budget: record.budget,
                        used: record.used,
                    },
                );
            }
            JsonlAppender::append(path, |tail| {
                serde_json::from_str::<SessionRecord>(tail)
                    .map(|r| r.kind == SESSION_RECORD_KIND)
                    .unwrap_or(false)
            })
            .map_err(|e| ServeError::Protocol(e.to_string()))?
        } else {
            JsonlAppender::create(path).map_err(|e| ServeError::Protocol(e.to_string()))?
        };
        manager.journal = Some(journal);
        Ok(manager)
    }

    /// Number of currently attached sessions.
    pub fn attached_count(&self) -> usize {
        self.attached.len()
    }

    /// Opens or resumes the session `id` (the `hello` op) for a
    /// connection that does not hold it yet, adding that connection's
    /// hold.
    ///
    /// A new session requires `victim` (present in `registry`) and
    /// `seed`. A resume may omit them; values it does supply must match
    /// the stored state ([`codes::CONFLICT`] otherwise — the session's
    /// keying is immutable precisely so its result stream stays
    /// bit-identical across reconnects).
    pub fn open(
        &mut self,
        id: &str,
        victim: Option<&str>,
        seed: Option<u64>,
        budget: Option<u64>,
        registry: &VictimRegistry,
    ) -> std::result::Result<SessionStatus, Reject> {
        if let Some(held) = self.attached.get_mut(id) {
            held.state.check_resume(id, victim, seed, budget)?;
            held.holders += 1;
            return Ok(held.state.status(id));
        }
        if let Some(state) = self.detached.get(id) {
            state.check_resume(id, victim, seed, budget)?;
            if self.attached.len() >= self.max_sessions {
                return Err(Reject::new(
                    codes::SESSION_TABLE_FULL,
                    format!("{} sessions already attached", self.max_sessions),
                ));
            }
            let state = self.detached.remove(id).expect("checked above");
            let status = state.status(id);
            self.attached
                .insert(id.to_string(), Attached { state, holders: 1 });
            return Ok(status);
        }

        let victim = victim
            .ok_or_else(|| Reject::new(codes::USAGE, "new session requires a victim name"))?;
        let seed =
            seed.ok_or_else(|| Reject::new(codes::USAGE, "new session requires a noise seed"))?;
        if registry.get(victim).is_none() {
            return Err(Reject::new(
                codes::UNKNOWN_VICTIM,
                format!("no victim named {victim:?}"),
            ));
        }
        if self.attached.len() >= self.max_sessions {
            return Err(Reject::new(
                codes::SESSION_TABLE_FULL,
                format!("{} sessions already attached", self.max_sessions),
            ));
        }
        let state = SessionState {
            victim: victim.to_string(),
            seed,
            budget,
            used: 0,
        };
        self.persist(id, &state)?;
        let status = state.status(id);
        self.attached
            .insert(id.to_string(), Attached { state, holders: 1 });
        if let Some(shard) = &self.metrics {
            shard.counter_add(victim, xbar_obs::names::SERVE_SESSIONS, 1);
        }
        Ok(status)
    }

    /// Answers a repeated `hello` from a connection that already holds
    /// session `id`: the supplied fields are checked as [`Self::open`]
    /// checks them, but no hold is added.
    pub fn confirm(
        &self,
        id: &str,
        victim: Option<&str>,
        seed: Option<u64>,
        budget: Option<u64>,
    ) -> std::result::Result<SessionStatus, Reject> {
        let state = &self
            .attached
            .get(id)
            .ok_or_else(|| Reject::new(codes::UNKNOWN_SESSION, format!("no session {id:?}")))?
            .state;
        state.check_resume(id, victim, seed, budget)?;
        Ok(state.status(id))
    }

    /// Reserves `count` queries against session `id`'s budget —
    /// all-or-nothing — and returns the session's status *after* the
    /// reservation (so `status.used - count` is the batch's base query
    /// index).
    ///
    /// The reservation is journaled before it is visible, which is what
    /// makes resume exact: a server killed between journal and reply
    /// resumes with those indices already consumed, never re-issuing an
    /// index the client might have seen.
    pub fn reserve(&mut self, id: &str, count: u64) -> std::result::Result<SessionStatus, Reject> {
        let state = &self
            .attached
            .get(id)
            .ok_or_else(|| Reject::new(codes::UNKNOWN_SESSION, format!("no session {id:?}")))?
            .state;
        if let Some(budget) = state.budget {
            let remaining = budget.saturating_sub(state.used);
            if count > remaining {
                return Err(Reject::new(
                    codes::BUDGET_EXHAUSTED,
                    format!("{count} queries requested, {remaining} of {budget} remaining"),
                ));
            }
        }
        let mut updated = state.clone();
        updated.used += count;
        self.persist(id, &updated)?;
        let status = updated.status(id);
        self.attached.get_mut(id).expect("checked above").state = updated;
        Ok(status)
    }

    /// The current accounting of the *attached* session `id`.
    pub fn status(&self, id: &str) -> Option<SessionStatus> {
        self.attached.get(id).map(|held| held.state.status(id))
    }

    /// Releases the `count` queries of a reservation whose evaluation
    /// failed or panicked before any of its records reached the client
    /// (`reserved` is the status [`SessionManager::reserve`] returned).
    ///
    /// The budget and index counter rewind only while that reservation
    /// is still the session's latest: once another connection has
    /// reserved after it, rewinding would re-issue indices that
    /// connection may already have answered, so the failed indices are
    /// skipped instead. Skipped indices never break bit-identity;
    /// duplicated ones would.
    pub fn unreserve(&mut self, reserved: &SessionStatus, count: u64) {
        let id = reserved.session.as_str();
        let Some(held) = self
            .attached
            .get(id)
            .filter(|h| h.state.used == reserved.used)
        else {
            return;
        };
        let mut updated = held.state.clone();
        updated.used = updated.used.saturating_sub(count);
        // A failed rollback journal write leaves `used` too high on
        // resume — indices are skipped, never duplicated, so the
        // bit-identity contract survives; ignore the error.
        let _ = self.persist(id, &updated);
        self.attached.get_mut(id).expect("checked above").state = updated;
    }

    /// Releases one connection's hold on session `id` (close or
    /// connection loss). The last release detaches it, freeing its
    /// admission slot but keeping its accounting for resume. Returns the
    /// session's status, or `None` if it was not attached.
    pub fn detach(&mut self, id: &str) -> Option<SessionStatus> {
        let held = self.attached.get_mut(id)?;
        held.holders -= 1;
        if held.holders > 0 {
            return Some(held.state.status(id));
        }
        let state = self.attached.remove(id)?.state;
        let status = state.status(id);
        self.detached.insert(id.to_string(), state);
        Some(status)
    }

    fn persist(&mut self, id: &str, state: &SessionState) -> std::result::Result<(), Reject> {
        if let Some(journal) = &mut self.journal {
            let record = SessionRecord {
                kind: SESSION_RECORD_KIND.to_string(),
                session: id.to_string(),
                victim: state.victim.clone(),
                seed: state.seed,
                budget: state.budget,
                used: state.used,
            };
            let started = Instant::now();
            let written = journal.write(&record);
            if let Some(shard) = &self.metrics {
                shard.record(
                    &state.victim,
                    xbar_obs::names::SERVE_JOURNAL_WRITE_NS,
                    started.elapsed().as_nanos() as u64,
                );
            }
            written.map_err(|e| Reject::new(codes::INTERNAL, format!("journal write: {e}")))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_path(name: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("xbar_serve_{}_{}", name, std::process::id()));
        path
    }

    fn registry() -> VictimRegistry {
        // Session-manager tests never evaluate; an empty registry plus
        // `open` calls that resume (or a stub victim) would be enough,
        // but building one real victim keeps `open`'s registry check
        // honest.
        let mut registry = VictimRegistry::new();
        let net = xbar_nn::network::SingleLayerNet::from_weights(
            xbar_linalg::Matrix::from_rows(&[&[1.0, -0.5]]),
            xbar_nn::activation::Activation::Identity,
        );
        let oracle =
            xbar_core::oracle::Oracle::new(net, &xbar_core::oracle::OracleConfig::ideal(), 3)
                .unwrap();
        registry.insert("toy", oracle).unwrap();
        registry
    }

    #[test]
    fn budget_is_all_or_nothing_and_indices_are_contiguous() {
        let registry = registry();
        let mut mgr = SessionManager::new(4);
        mgr.open("s1", Some("toy"), Some(7), Some(5), &registry)
            .unwrap();
        let status = mgr.reserve("s1", 3).unwrap();
        assert_eq!(status.used, 3);
        let err = mgr.reserve("s1", 3).unwrap_err();
        assert_eq!(err.code, codes::BUDGET_EXHAUSTED);
        // Nothing consumed by the failed reservation.
        let status = mgr.reserve("s1", 2).unwrap();
        assert_eq!(status.used, 5);
    }

    #[test]
    fn unreserve_rewinds_only_the_latest_reservation() {
        let reg = registry();
        let mut mgr = SessionManager::new(4);
        mgr.open("s", Some("toy"), Some(1), Some(10), &reg).unwrap();
        let first = mgr.reserve("s", 3).unwrap();
        let second = mgr.reserve("s", 2).unwrap();
        // A later reservation may already be answered: the earlier
        // one's indices are skipped, not re-issued.
        mgr.unreserve(&first, 3);
        assert_eq!(mgr.status("s").unwrap().used, 5);
        mgr.unreserve(&second, 2);
        assert_eq!(mgr.status("s").unwrap().used, 3);
    }

    #[test]
    fn admission_counts_attached_sessions_only() {
        let registry = registry();
        let mut mgr = SessionManager::new(1);
        mgr.open("s1", Some("toy"), Some(1), None, &registry)
            .unwrap();
        let err = mgr
            .open("s2", Some("toy"), Some(2), None, &registry)
            .unwrap_err();
        assert_eq!(err.code, codes::SESSION_TABLE_FULL);
        // A second connection's hold takes no second slot, and the
        // session stays attached until both holds are released.
        mgr.open("s1", None, None, None, &registry).unwrap();
        assert_eq!(mgr.attached_count(), 1);
        mgr.detach("s1").unwrap();
        assert_eq!(mgr.attached_count(), 1);
        assert!(mgr.status("s1").is_some());
        // Detaching frees the slot; the detached session resumes later.
        mgr.detach("s1").unwrap();
        assert!(mgr.detach("s1").is_none());
        mgr.open("s2", Some("toy"), Some(2), None, &registry)
            .unwrap();
        let err = mgr.open("s1", None, None, None, &registry).unwrap_err();
        assert_eq!(err.code, codes::SESSION_TABLE_FULL);
        mgr.detach("s2").unwrap();
        let resumed = mgr.open("s1", None, None, None, &registry).unwrap();
        assert_eq!(resumed.seed, 1);
    }

    #[test]
    fn confirm_checks_a_held_session_without_adding_a_hold() {
        let registry = registry();
        let mut mgr = SessionManager::new(4);
        mgr.open("s1", Some("toy"), Some(7), None, &registry)
            .unwrap();
        assert_eq!(mgr.confirm("s1", Some("toy"), None, None).unwrap().seed, 7);
        let err = mgr.confirm("s1", None, Some(8), None).unwrap_err();
        assert_eq!(err.code, codes::CONFLICT);
        let err = mgr.confirm("s2", None, None, None).unwrap_err();
        assert_eq!(err.code, codes::UNKNOWN_SESSION);
        mgr.detach("s1").unwrap();
        assert_eq!(mgr.attached_count(), 0);
    }

    #[test]
    fn resume_conflicts_are_rejected() {
        let registry = registry();
        let mut mgr = SessionManager::new(4);
        mgr.open("s1", Some("toy"), Some(7), Some(10), &registry)
            .unwrap();
        let err = mgr
            .open("s1", Some("toy"), Some(8), None, &registry)
            .unwrap_err();
        assert_eq!(err.code, codes::CONFLICT);
        let err = mgr
            .open("s1", Some("toy"), Some(7), Some(11), &registry)
            .unwrap_err();
        assert_eq!(err.code, codes::CONFLICT);
    }

    #[test]
    fn journal_roundtrip_resumes_budget_and_index() {
        let registry = registry();
        let path = test_path("journal_roundtrip");
        {
            let mut mgr = SessionManager::with_journal(4, &path).unwrap();
            mgr.open("s1", Some("toy"), Some(7), Some(10), &registry)
                .unwrap();
            mgr.reserve("s1", 4).unwrap();
        }
        // A new manager (server restart) resumes the exact state.
        let mut mgr = SessionManager::with_journal(4, &path).unwrap();
        let status = mgr.open("s1", None, None, None, &registry).unwrap();
        assert_eq!(status.victim, "toy");
        assert_eq!(status.seed, 7);
        assert_eq!(status.budget, Some(10));
        assert_eq!(status.used, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_tolerates_and_repairs_a_torn_tail() {
        use std::io::Write;
        let registry = registry();
        let path = test_path("journal_torn");
        {
            let mut mgr = SessionManager::with_journal(4, &path).unwrap();
            mgr.open("s1", Some("toy"), Some(7), Some(10), &registry)
                .unwrap();
            mgr.reserve("s1", 4).unwrap();
        }
        // Kill mid-write: a torn fragment after the last good record.
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        file.write_all(b"{\"kind\":\"xbar-serve-session\",\"sess")
            .unwrap();
        drop(file);

        let mut mgr = SessionManager::with_journal(4, &path).unwrap();
        let status = mgr.open("s1", None, None, None, &registry).unwrap();
        assert_eq!(status.used, 4);
        // The repaired journal keeps appending cleanly.
        mgr.reserve("s1", 1).unwrap();
        drop(mgr);
        let mut mgr = SessionManager::with_journal(4, &path).unwrap();
        let status = mgr.open("s1", None, None, None, &registry).unwrap();
        assert_eq!(status.used, 5);
        std::fs::remove_file(&path).ok();
    }
}
