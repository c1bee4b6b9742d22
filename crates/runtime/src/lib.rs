//! # xbar-runtime
//!
//! A deterministic parallel campaign runner for the experiment harness:
//! a *campaign* is a grid of independent trials (dataset × oracle
//! configuration × attack method × strength × seed), and the runtime
//! executes each trial once on a worker pool, with checkpointing and
//! progress metrics.
//!
//! Design invariants:
//!
//! * **Determinism.** Every trial draws randomness only from
//!   [`TrialContext::rng`], a ChaCha8 stream derived from
//!   `(campaign_seed, trial_index)`. Because the stream depends on the
//!   trial's position in the grid and on nothing else, results are
//!   bit-identical regardless of thread count or scheduling order.
//! * **Deterministic journal.** The trial journal (JSON Lines) records
//!   only deterministic content — trial index, status, and the
//!   serialised output or error. Wall-clock timing is reported through the
//!   [`progress::ProgressSink`] instead, so two runs of the same
//!   campaign produce byte-identical journals once sorted by trial
//!   index.
//! * **Failure isolation.** Each trial runs exactly once, under
//!   `catch_unwind`. A trial that returns `Err` or panics is journaled
//!   as failed; it never aborts the campaign. Trials are deterministic,
//!   so running one again in the same process would reach the same
//!   error.
//! * **Resumability.** The journal doubles as a checkpoint: re-running
//!   with resume enabled skips every trial already recorded as completed
//!   and re-runs the rest (failed or never finished), after verifying the
//!   journal header's campaign fingerprint. A truncated final line (from
//!   a killed run) is tolerated.
//!
//! ```
//! use xbar_runtime::{
//!     run_campaign, Campaign, ExecutorConfig, NullSink, TrialContext, TrialRunner,
//! };
//! use serde::{Deserialize, Serialize};
//!
//! #[derive(Serialize, Deserialize)]
//! struct Square {
//!     x: u64,
//! }
//!
//! #[derive(Serialize, Deserialize)]
//! struct Squared {
//!     y: u64,
//! }
//!
//! struct Runner;
//!
//! impl TrialRunner for Runner {
//!     type Spec = Square;
//!     type Output = Squared;
//!
//!     fn run(&self, spec: &Square, _ctx: &TrialContext) -> Result<Squared, String> {
//!         Ok(Squared { y: spec.x * spec.x })
//!     }
//! }
//!
//! let mut campaign = Campaign::new("squares", 7);
//! for x in 0..4 {
//!     campaign.push_trial(Square { x });
//! }
//! let report = run_campaign(
//!     &Runner,
//!     &campaign,
//!     &ExecutorConfig::with_threads(2),
//!     None,
//!     false,
//!     &mut NullSink,
//! )
//! .unwrap();
//! assert_eq!(report.outputs[3].as_ref().unwrap().y, 9);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod campaign;
pub mod executor;
pub mod journal;
pub mod jsonl;
pub mod progress;
pub mod runner;

pub use campaign::Campaign;
pub use executor::{
    run_campaign, run_campaign_traced, CampaignReport, ExecutorConfig, RuntimeError, TrialFailure,
};
pub use journal::{JournalHeader, TrialRecord, TrialStatus};
pub use jsonl::{read_jsonl, JsonlAppender};
pub use progress::{CampaignMetrics, NullSink, ProgressSink, StderrReporter, TrialOutcome};
pub use runner::{permanent_error, TrialContext, TrialRunner};
