//! IR-drop simulation: finite wire resistance in the crossbar.
//!
//! The paper's analysis assumes ideal wires ("no current sneak paths,
//! etc.") and defers non-ideal electrical behaviour to SPICE. This module
//! provides the standard intermediate-fidelity model between the ideal
//! analytical crossbar and a full SPICE netlist: every wire segment
//! between adjacent cells has resistance `r_wire`, input lines are driven
//! from one end, output lines are sensed at virtual ground from one end,
//! and the resulting 2-D resistive network is solved by Gauss–Seidel
//! relaxation of Kirchhoff's current law at every internal node.
//!
//! With `r_wire = 0` the solver reproduces the ideal crossbar exactly
//! (verified by test); with realistic wire resistance, cells far from the
//! drivers/sense amplifiers see reduced voltages, attenuating both the
//! MVM result and the total supply current — and, interestingly for the
//! attack, attenuating *far* columns' power signatures more than near
//! ones.

use crate::{CrossbarError, Result};
use serde::{Deserialize, Serialize};
use xbar_linalg::Matrix;

/// Configuration of the wire-resistance model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IrDropConfig {
    /// Wire resistance per cell-to-cell segment, in units of
    /// `1 / g_max` (i.e. `r_wire = 0.01` means one segment has 1% of the
    /// resistance of a fully-on device).
    pub r_wire: f64,
    /// Convergence threshold on the maximum node-voltage update.
    pub tolerance: f64,
    /// Iteration cap for the relaxation.
    pub max_iterations: usize,
    /// Opt-in to combining the IR-drop solve with the fault layer's
    /// first-order `line_resistance` attenuation on the same array.
    /// Both model series wire resistance, so enabling both silently
    /// double-counts the physics; `xbar_faults::check_ir_drop_compose`
    /// rejects the combination unless this flag is set (deliberate
    /// worst-case studies only).
    pub allow_with_line_faults: bool,
}

impl Default for IrDropConfig {
    fn default() -> Self {
        IrDropConfig {
            r_wire: 0.01,
            tolerance: 1e-10,
            max_iterations: 20_000,
            allow_with_line_faults: false,
        }
    }
}

impl IrDropConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidConfig`] naming the first invalid
    /// field.
    pub fn validate(&self) -> Result<()> {
        if !(self.r_wire.is_finite() && self.r_wire >= 0.0) {
            return Err(CrossbarError::InvalidConfig { name: "r_wire" });
        }
        if !(self.tolerance.is_finite() && self.tolerance > 0.0) {
            return Err(CrossbarError::InvalidConfig { name: "tolerance" });
        }
        if self.max_iterations == 0 {
            return Err(CrossbarError::InvalidConfig {
                name: "max_iterations",
            });
        }
        Ok(())
    }
}

/// The solved electrical state of one resistive crossbar plane.
#[derive(Debug, Clone, PartialEq)]
pub struct IrDropSolution {
    /// Per-output-row currents flowing into the sense amplifiers
    /// (normalised units).
    pub row_currents: Vec<f64>,
    /// Total current drawn from the input drivers — the observable power
    /// quantity under IR drop.
    pub total_current: f64,
    /// Relaxation iterations used.
    pub iterations: usize,
}

/// Solves one conductance plane (`g[i][j]`, an `M x N` matrix) with input
/// voltages `v_in[j]` applied at the row-0 end of each column wire and
/// all output (row) wires sensed at virtual ground from the column-0 end.
///
/// Node layout: `vc[i][j]` is the column-wire potential at cell `(i, j)`;
/// `vr[i][j]` is the row-wire potential at cell `(i, j)`. The device at
/// `(i, j)` conducts `g_ij (vc_ij − vr_ij)` from column wire to row wire.
///
/// # Errors
///
/// * [`CrossbarError::InvalidConfig`] for invalid solver parameters.
/// * [`CrossbarError::InputLenMismatch`] if `v_in.len() != g.cols()`.
///
/// Non-convergence is not an error: the solver returns the best
/// iterate with its iteration count, and callers can inspect
/// [`IrDropSolution::iterations`].
pub fn solve_plane(g: &Matrix, v_in: &[f64], cfg: &IrDropConfig) -> Result<IrDropSolution> {
    cfg.validate()?;
    let (m, n) = g.shape();
    if v_in.len() != n {
        return Err(CrossbarError::InputLenMismatch {
            expected: n,
            got: v_in.len(),
        });
    }
    if m == 0 || n == 0 {
        return Ok(IrDropSolution {
            row_currents: vec![0.0; m],
            total_current: 0.0,
            iterations: 0,
        });
    }

    // Ideal-wire shortcut (also the exact solution for r_wire = 0).
    if cfg.r_wire == 0.0 {
        let mut row_currents = vec![0.0; m];
        let mut total = 0.0;
        for i in 0..m {
            for j in 0..n {
                let c = g[(i, j)] * v_in[j];
                row_currents[i] += c;
                total += c;
            }
        }
        return Ok(IrDropSolution {
            row_currents,
            total_current: total,
            iterations: 0,
        });
    }

    let g_wire = 1.0 / cfg.r_wire;
    // Initialise column wires at their drive voltages, row wires at 0.
    let mut vc = Matrix::from_fn(m, n, |_, j| v_in[j]);
    let mut vr = Matrix::zeros(m, n);

    let mut iterations = 0;
    for it in 0..cfg.max_iterations {
        iterations = it + 1;
        let mut max_delta = 0.0_f64;
        for i in 0..m {
            for j in 0..n {
                let gd = g[(i, j)];
                // --- Column-wire node (i, j): neighbours along i ---
                // Row 0 connects through a segment to the driver v_in[j].
                let mut num = gd * vr[(i, j)];
                let mut den = gd;
                if i == 0 {
                    num += g_wire * v_in[j];
                    den += g_wire;
                } else {
                    num += g_wire * vc[(i - 1, j)];
                    den += g_wire;
                }
                if i + 1 < m {
                    num += g_wire * vc[(i + 1, j)];
                    den += g_wire;
                }
                let new_vc = num / den;
                max_delta = max_delta.max((new_vc - vc[(i, j)]).abs());
                vc[(i, j)] = new_vc;

                // --- Row-wire node (i, j): neighbours along j ---
                // Column 0 connects through a segment to virtual ground.
                let mut num = gd * vc[(i, j)];
                let mut den = gd;
                if j == 0 {
                    // Segment to the sense amplifier at 0 V.
                    den += g_wire;
                } else {
                    num += g_wire * vr[(i, j - 1)];
                    den += g_wire;
                }
                if j + 1 < n {
                    num += g_wire * vr[(i, j + 1)];
                    den += g_wire;
                }
                let new_vr = num / den;
                max_delta = max_delta.max((new_vr - vr[(i, j)]).abs());
                vr[(i, j)] = new_vr;
            }
        }
        if max_delta < cfg.tolerance {
            break;
        }
    }

    // Row currents: what flows into each sense amp through the first
    // row-wire segment.
    let row_currents: Vec<f64> = (0..m).map(|i| g_wire * vr[(i, 0)]).collect();
    // Total supply current: what the drivers push into each column wire.
    let total_current: f64 = (0..n).map(|j| g_wire * (v_in[j] - vc[(0, j)])).sum();

    Ok(IrDropSolution {
        row_currents,
        total_current,
        iterations,
    })
}

/// Differential IR-drop MVM over a `(G⁺, G⁻)` pair: solves each plane
/// and returns `(i⁺ − i⁻, i⁺_total + i⁻_total)` — the output currents in
/// conductance·voltage units and the (shared-rail) supply current.
///
/// # Errors
///
/// Propagates [`solve_plane`] errors; the planes must share a shape.
pub fn solve_differential(
    g_plus: &Matrix,
    g_minus: &Matrix,
    v_in: &[f64],
    cfg: &IrDropConfig,
) -> Result<(Vec<f64>, f64)> {
    if g_plus.shape() != g_minus.shape() {
        return Err(CrossbarError::InvalidConfig {
            name: "plane shapes",
        });
    }
    let p = solve_plane(g_plus, v_in, cfg)?;
    let q = solve_plane(g_minus, v_in, cfg)?;
    let out: Vec<f64> = p
        .row_currents
        .iter()
        .zip(&q.row_currents)
        .map(|(&a, &b)| a - b)
        .collect();
    Ok((out, p.total_current + q.total_current))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_g(m: usize, n: usize, g: f64) -> Matrix {
        Matrix::filled(m, n, g)
    }

    #[test]
    fn zero_wire_resistance_is_ideal() {
        let g = Matrix::from_rows(&[&[0.5, 0.2], &[0.1, 0.8]]);
        let v = [1.0, 0.5];
        let cfg = IrDropConfig {
            r_wire: 0.0,
            ..IrDropConfig::default()
        };
        let sol = solve_plane(&g, &v, &cfg).unwrap();
        assert!((sol.row_currents[0] - (0.5 + 0.1)).abs() < 1e-12);
        assert!((sol.row_currents[1] - (0.1 + 0.4)).abs() < 1e-12);
        assert!((sol.total_current - 1.1).abs() < 1e-12);
    }

    #[test]
    fn tiny_wire_resistance_approaches_ideal() {
        let g = Matrix::from_rows(&[&[0.5, 0.2], &[0.1, 0.8]]);
        let v = [1.0, 0.5];
        let cfg = IrDropConfig {
            r_wire: 1e-6,
            ..IrDropConfig::default()
        };
        let sol = solve_plane(&g, &v, &cfg).unwrap();
        assert!((sol.row_currents[0] - 0.6).abs() < 1e-3);
        assert!((sol.row_currents[1] - 0.5).abs() < 1e-3);
        assert!((sol.total_current - 1.1).abs() < 1e-3);
    }

    #[test]
    fn ir_drop_attenuates_currents() {
        let g = uniform_g(8, 8, 0.8);
        let v = vec![1.0; 8];
        let ideal = solve_plane(
            &g,
            &v,
            &IrDropConfig {
                r_wire: 0.0,
                ..IrDropConfig::default()
            },
        )
        .unwrap();
        let dropped = solve_plane(
            &g,
            &v,
            &IrDropConfig {
                r_wire: 0.05,
                ..IrDropConfig::default()
            },
        )
        .unwrap();
        assert!(dropped.total_current < ideal.total_current);
        for (a, b) in dropped.row_currents.iter().zip(&ideal.row_currents) {
            assert!(a < b, "every row current attenuates: {a} vs {b}");
            assert!(*a > 0.0);
        }
    }

    #[test]
    fn attenuation_grows_with_wire_resistance() {
        let g = uniform_g(6, 6, 0.5);
        let v = vec![1.0; 6];
        let current_at = |r: f64| {
            solve_plane(
                &g,
                &v,
                &IrDropConfig {
                    r_wire: r,
                    ..IrDropConfig::default()
                },
            )
            .unwrap()
            .total_current
        };
        let i1 = current_at(0.01);
        let i2 = current_at(0.05);
        let i3 = current_at(0.2);
        assert!(i1 > i2 && i2 > i3, "{i1} > {i2} > {i3} expected");
    }

    #[test]
    fn far_rows_attenuate_more() {
        // All devices equal: rows farther from the column drivers (larger
        // i) see lower column-wire voltage, hence less current.
        let g = uniform_g(6, 4, 0.9);
        let v = vec![1.0; 4];
        let sol = solve_plane(
            &g,
            &v,
            &IrDropConfig {
                r_wire: 0.1,
                ..IrDropConfig::default()
            },
        )
        .unwrap();
        for w in sol.row_currents.windows(2) {
            assert!(
                w[0] > w[1],
                "row currents should decay: {:?}",
                sol.row_currents
            );
        }
    }

    #[test]
    fn solution_is_linear_in_drive_voltage() {
        // The network is linear: scaling all drives scales all currents.
        let g = Matrix::from_rows(&[&[0.3, 0.6], &[0.9, 0.1]]);
        let cfg = IrDropConfig {
            r_wire: 0.05,
            ..IrDropConfig::default()
        };
        let a = solve_plane(&g, &[1.0, 0.4], &cfg).unwrap();
        let b = solve_plane(&g, &[0.5, 0.2], &cfg).unwrap();
        assert!((a.total_current - 2.0 * b.total_current).abs() < 1e-6);
        for (x, y) in a.row_currents.iter().zip(&b.row_currents) {
            assert!((x - 2.0 * y).abs() < 1e-6);
        }
    }

    #[test]
    fn differential_pair_solves_both_planes() {
        let gp = Matrix::from_rows(&[&[0.8, 0.0], &[0.0, 0.3]]);
        let gm = Matrix::from_rows(&[&[0.0, 0.5], &[0.2, 0.0]]);
        let cfg = IrDropConfig {
            r_wire: 0.0,
            ..IrDropConfig::default()
        };
        let (out, total) = solve_differential(&gp, &gm, &[1.0, 1.0], &cfg).unwrap();
        assert!((out[0] - (0.8 - 0.5)).abs() < 1e-12);
        assert!((out[1] - (0.3 - 0.2)).abs() < 1e-12);
        assert!((total - (0.8 + 0.3 + 0.5 + 0.2)).abs() < 1e-12);
        assert!(solve_differential(&gp, &Matrix::zeros(3, 2), &[1.0, 1.0], &cfg).is_err());
    }

    #[test]
    fn energy_conservation_under_ir_drop() {
        // Supply current equals the sum of sense currents (all injected
        // charge leaves through the amplifiers).
        let g = uniform_g(5, 5, 0.6);
        let v = vec![1.0, 0.8, 0.6, 0.4, 0.2];
        let sol = solve_plane(
            &g,
            &v,
            &IrDropConfig {
                r_wire: 0.05,
                tolerance: 1e-12,
                max_iterations: 100_000,
                ..IrDropConfig::default()
            },
        )
        .unwrap();
        let sensed: f64 = sol.row_currents.iter().sum();
        assert!(
            (sol.total_current - sensed).abs() < 1e-6,
            "KCL: supply {} vs sensed {}",
            sol.total_current,
            sensed
        );
    }

    #[test]
    fn validation_and_shapes() {
        let g = uniform_g(2, 2, 0.5);
        let bad = IrDropConfig {
            r_wire: -1.0,
            ..IrDropConfig::default()
        };
        assert!(solve_plane(&g, &[1.0, 1.0], &bad).is_err());
        assert!(solve_plane(&g, &[1.0], &IrDropConfig::default()).is_err());
        let empty = solve_plane(&Matrix::zeros(0, 0), &[], &IrDropConfig::default()).unwrap();
        assert_eq!(empty.total_current, 0.0);
    }

    #[test]
    fn power_leak_survives_moderate_ir_drop() {
        // The attack-relevant property: column norms still dominate the
        // per-column power signature under moderate wire resistance.
        let mut g = Matrix::zeros(4, 6);
        // Column norms increase with j.
        for i in 0..4 {
            for j in 0..6 {
                g[(i, j)] = 0.1 + 0.12 * j as f64;
            }
        }
        let cfg = IrDropConfig {
            r_wire: 0.02,
            ..IrDropConfig::default()
        };
        let mut probed = Vec::new();
        for j in 0..6 {
            let mut v = vec![0.0; 6];
            v[j] = 1.0;
            probed.push(solve_plane(&g, &v, &cfg).unwrap().total_current);
        }
        // Probed currents preserve the column ordering.
        for w in probed.windows(2) {
            assert!(w[0] < w[1], "ordering broken: {probed:?}");
        }
    }
}
