//! The trial abstraction: what a campaign executes.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fmt::Display;

/// Builds an error message for a deterministic trial failure:
/// `"permanent: {msg}"`. The executor treats every failure alike (one
/// run, journaled as failed); the prefix only labels the message.
pub fn permanent_error(msg: impl Display) -> String {
    format!("permanent: {msg}")
}

/// Per-trial execution context handed to [`TrialRunner::run`].
///
/// The context is the *only* sanctioned source of randomness inside a
/// trial: [`TrialContext::rng`] derives an independent ChaCha8 stream
/// from `(campaign_seed, trial_index)`, so a trial's draws depend on its
/// position in the campaign grid and on nothing else — in particular not
/// on which worker thread runs it, or in what order.
#[derive(Debug, Clone)]
pub struct TrialContext {
    /// This trial's index within the campaign grid (dense, 0-based).
    pub trial_index: usize,
    /// The campaign-level seed every trial stream is derived from.
    pub campaign_seed: u64,
    /// Always `1`: the executor runs each trial exactly once.
    pub attempt: u32,
}

impl TrialContext {
    /// The trial's deterministic RNG: the same stream every time the
    /// trial runs, in this run or a resumed one.
    pub fn rng(&self) -> ChaCha8Rng {
        let mut rng = ChaCha8Rng::seed_from_u64(self.campaign_seed);
        rng.set_stream(self.trial_index as u64);
        rng
    }
}

/// Executes one kind of trial.
///
/// Implementations must be deterministic functions of
/// `(spec, ctx.rng())`: no ambient randomness, time, or global state.
/// The executor may call `run` concurrently from several threads.
pub trait TrialRunner: Sync {
    /// The per-trial parameters (one cell of the campaign grid).
    type Spec: Serialize + DeserializeOwned + Send + Sync;
    /// The per-trial result, journaled as JSON on completion.
    type Output: Serialize + DeserializeOwned + Send;

    /// Runs one trial, exactly once per campaign run. `Err` (and panics,
    /// which the executor converts to `Err`) is journaled as a failed
    /// trial without aborting the campaign; a resumed run re-runs every
    /// trial not journaled as completed.
    fn run(&self, spec: &Self::Spec, ctx: &TrialContext) -> Result<Self::Output, String>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn trial_streams_are_independent_and_stable() {
        let ctx = |trial_index| TrialContext {
            trial_index,
            campaign_seed: 42,
            attempt: 1,
        };
        let mut r0 = ctx(0).rng();
        let mut r0b = ctx(0).rng();
        let mut r1 = ctx(1).rng();
        let first0 = r0.next_u64();
        assert_eq!(first0, r0b.next_u64(), "same trial, same stream");
        assert_ne!(first0, r1.next_u64(), "different trials, different streams");
    }
}
