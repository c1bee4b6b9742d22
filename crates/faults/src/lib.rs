//! # xbar-faults
//!
//! Deterministic device fault injection for NVM crossbar arrays.
//!
//! The attack pipeline elsewhere in this workspace assumes an ideal
//! crossbar; real arrays have stuck-at devices, lognormal programming
//! variation, conductance drift, and wire resistance. This crate models
//! those non-idealities as a *deployment-time* transform of a programmed
//! [`CrossbarArray`](xbar_crossbar::array::CrossbarArray), so robustness
//! sweeps can ask how attack success degrades as hardware degrades.
//!
//! The pipeline is spec → plan → apply:
//!
//! 1. [`FaultSpec`] — a serializable description of fault *rates*
//!    (stuck-at-on/off probabilities, variation sigma, drift
//!    parameters, per-line resistance). No randomness yet.
//! 2. [`FaultPlan`] — the spec compiled for one array shape under one
//!    [`FaultKey`]. Every per-device draw comes from its own
//!    counter-mode RNG stream keyed by
//!    `(campaign_seed, trial_index, device_index)`, so plans are
//!    bit-identical at any thread count and independent of compilation
//!    order — the same discipline `xbar-runtime` uses for trial RNGs.
//! 3. [`FaultPlan::apply`] — materialises a faulted copy of a
//!    programmed array. [`FaultPlan::apply_at`] does the same at any
//!    other drift time, so a drifting deployment compiles its plan
//!    once, and [`FaultPlan::apply_at_threads`] fans the rows out over
//!    worker threads without changing a bit. A no-op plan returns an
//!    exact clone that keeps the array's generation.
//!
//! The faulted array *is* the deployed hardware: the oracle
//! (`xbar_core::oracle::Oracle`) applies the plan once at deployment
//! and again at each drift epoch, and any
//! [`EvalBackend`](xbar_crossbar::backend::EvalBackend) then evaluates
//! the faulted array like any other. Per-query transients
//! ([`TransientSpec`]) perturb a copy of the deployed array per query;
//! see the [`transient`] module.
//!
//! Observability: compilation counts
//! [`xbar_obs::names::XBAR_FAULT_PLAN_COMPILE`] under the
//! [`xbar_obs::names::SPAN_FAULT_COMPILE`] span;
//! application counts [`xbar_obs::names::XBAR_FAULT_APPLY`]
//! and [`xbar_obs::names::XBAR_FAULT_STUCK_DEVICES`] under the
//! [`xbar_obs::names::SPAN_FAULT_APPLY`] span.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use xbar_crossbar::array::CrossbarArray;
//! use xbar_crossbar::device::DeviceModel;
//! use xbar_faults::{FaultKey, FaultSpec};
//! use xbar_linalg::Matrix;
//!
//! let w = Matrix::from_rows(&[&[0.5, -1.0], &[0.25, 0.75]]);
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let xbar = CrossbarArray::program(&w, &DeviceModel::ideal(), &mut rng)?;
//!
//! let spec = FaultSpec::none().with_stuck_off_rate(0.25);
//! let plan = spec.compile(xbar.num_outputs(), xbar.num_inputs(), FaultKey::new(42, 0))?;
//! let faulted = plan.apply(&xbar)?;
//! assert_eq!(faulted.num_devices(), xbar.num_devices());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

use std::fmt;

pub mod plan;
pub mod spec;
pub mod transient;

pub use plan::{FaultInjection, FaultKey, FaultPlan, StuckKind};
pub use spec::FaultSpec;
pub use transient::{TransientInjection, TransientSpec};

/// Guards against double-counting wire resistance: the iterative
/// IR-drop solver (`ir_drop_mvm` with `r_wire > 0`) and the fault
/// layer's first-order `line_resistance` scaling model the *same*
/// physics, so enabling both on one array silently compounds the
/// effect. This check rejects that combination unless the IR-drop
/// config opts in explicitly via
/// [`allow_with_line_faults`](xbar_crossbar::irdrop::IrDropConfig::allow_with_line_faults)
/// (for deliberate worst-case studies). See DESIGN.md "IR drop vs.
/// fault-layer line resistance" for when each model applies.
///
/// # Errors
///
/// Returns [`FaultsError::InvalidSpec`] naming `line_resistance` when
/// both models are active and the opt-in flag is unset.
pub fn check_ir_drop_compose(
    spec: &FaultSpec,
    ir: &xbar_crossbar::irdrop::IrDropConfig,
) -> Result<()> {
    if spec.line_resistance > 0.0 && ir.r_wire > 0.0 && !ir.allow_with_line_faults {
        return Err(FaultsError::InvalidSpec {
            name: "line_resistance",
        });
    }
    Ok(())
}

/// Errors produced by the fault-injection subsystem.
#[derive(Debug)]
#[non_exhaustive]
pub enum FaultsError {
    /// A [`FaultSpec`] parameter is outside its valid domain.
    InvalidSpec {
        /// Name of the offending parameter.
        name: &'static str,
    },
    /// A [`FaultPlan`] was applied to an array of a different shape.
    ShapeMismatch {
        /// The `(outputs, inputs)` shape the plan was compiled for.
        expected: (usize, usize),
        /// The shape of the array it was applied to.
        got: (usize, usize),
    },
    /// A JSON fault-spec document could not be interpreted.
    BadSpecFile {
        /// Human-readable description of the problem.
        reason: String,
    },
}

impl fmt::Display for FaultsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultsError::InvalidSpec { name } => {
                write!(f, "fault-spec parameter {name} is outside its valid domain")
            }
            FaultsError::ShapeMismatch { expected, got } => write!(
                f,
                "fault plan compiled for {}x{} applied to {}x{} array",
                expected.0, expected.1, got.0, got.1
            ),
            FaultsError::BadSpecFile { reason } => {
                write!(f, "bad fault-spec document: {reason}")
            }
        }
    }
}

impl std::error::Error for FaultsError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FaultsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FaultsError>();
        let e = FaultsError::InvalidSpec {
            name: "stuck_on_rate",
        };
        assert!(e.to_string().contains("stuck_on_rate"));
        let e = FaultsError::ShapeMismatch {
            expected: (2, 3),
            got: (4, 5),
        };
        assert!(e.to_string().contains("2x3"));
        assert!(e.to_string().contains("4x5"));
        let e = FaultsError::BadSpecFile {
            reason: "not an object".into(),
        };
        assert!(e.to_string().contains("not an object"));
    }

    #[test]
    fn ir_drop_and_line_resistance_do_not_silently_compose() {
        use xbar_crossbar::irdrop::IrDropConfig;

        let both = FaultSpec::none().with_line_resistance(0.5);
        let ir = IrDropConfig {
            r_wire: 0.1,
            ..IrDropConfig::default()
        };
        // Double-counted wire physics is rejected at validate time ...
        assert!(matches!(
            check_ir_drop_compose(&both, &ir),
            Err(FaultsError::InvalidSpec {
                name: "line_resistance"
            })
        ));
        // ... unless the IR-drop config opts in explicitly ...
        let opted_in = IrDropConfig {
            allow_with_line_faults: true,
            ..ir
        };
        assert!(check_ir_drop_compose(&both, &opted_in).is_ok());
        // ... and either model alone is always fine.
        assert!(check_ir_drop_compose(&FaultSpec::none(), &ir).is_ok());
        let no_wire = IrDropConfig {
            r_wire: 0.0,
            ..IrDropConfig::default()
        };
        assert!(check_ir_drop_compose(&both, &no_wire).is_ok());
    }
}
