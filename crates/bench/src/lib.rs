//! # xbar-bench
//!
//! The experiment harness: the one runner that regenerates every table
//! and figure of the paper, plus the `xbar bench` suites and the
//! robustness sweeps.
//!
//! Every figure — `table1`, `fig3`, `fig4`, `fig5`, `multipixel`,
//! `recovery`, `ablations`, `multilayer` — runs on the [`xbar_runtime`]
//! campaign executor (parallel, checkpointed, resumable, traceable):
//! its grid lives in [`campaign`] and its run function in [`figures`]
//! ([`figures::FIGURES`] lists them). `xbar campaign --figure NAME`
//! runs one, printing the paper's rows as aligned tables and writing
//! `results/NAME.json`.
//!
//! [`mvmbench`] backs `xbar bench mvm`: the naive-vs-blocked batched
//! MVM microbenchmark behind CI's `BENCH_mvm.json` artifact.
//!
//! [`faultsweep`] backs `xbar faults sweep`: attack-success-vs-fault-rate
//! robustness curves over the [`xbar_faults`] injection subsystem.
//!
//! [`lifetimesweep`] backs `xbar lifetime sweep`: attack efficacy over a
//! decaying hardware lifetime — a (drift time × transient rate ×
//! defense) cross-sweep with probe recalibration.
//!
//! [`servebench`] backs `xbar bench serve`: campaign-service
//! throughput and round-trip latency at 1/8/64 concurrent sessions,
//! behind CI's `BENCH_serve.json` artifact.
//!
//! [`infersweep`] backs `xbar infer sweep`: Bayesian column-norm
//! recovery from noisy power readings ([`xbar_infer`]) across query
//! budget, measurement noise, and chain count, with posterior-guided
//! attacks and credible-interval attack bands.

pub mod campaign;
pub mod faultsweep;
pub mod figures;
pub mod infersweep;
pub mod lifetimesweep;
pub mod mvmbench;
pub mod servebench;
pub mod setup;

pub use setup::*;
