//! One-line import of the types almost every crossbar consumer needs.
//!
//! ```
//! use xbar_crossbar::prelude::*;
//! use rand::SeedableRng;
//!
//! let w = xbar_linalg::Matrix::from_rows(&[&[0.5, -1.0]]);
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let xbar = CrossbarArray::program(&w, &DeviceModel::ideal(), &mut rng)?;
//! let backend = BackendSpec::new(BackendKind::Blocked).build()?;
//! let prepared = backend.prepare(&xbar)?;
//! let out = backend.mvm_prepared(&prepared, &xbar, &[&[1.0, 0.0]])?;
//! assert!((out[0][0] - 0.5).abs() < 1e-9);
//! # Ok::<(), CrossbarError>(())
//! ```

pub use crate::array::CrossbarArray;
pub use crate::backend::{
    BackendKind, BackendSpec, BatchConfig, BlockedBackend, EvalBackend, NaiveBackend, PreparedEval,
    RngStreams,
};
pub use crate::device::DeviceModel;
pub use crate::mapping::WeightMapping;
pub use crate::power::{PowerModel, PowerTrace};
pub use crate::tile::TiledCrossbar;
pub use crate::{CrossbarError, Result};
