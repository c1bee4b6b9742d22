//! Exact-outcome screening for elliptical slice sampling.
//!
//! An elliptical slice transition (Murray, Adams & MacKay 2010) draws
//! a slice level `log_y` and then proposes points on the ellipse
//! `θ(φ) = m + (θ−m)·cos φ + ν·sin φ`, shrinking the angle bracket
//! until one proposal's log-likelihood exceeds `log_y`. Every rejected
//! proposal only needs the *sign* of `ll − log_y`.
//!
//! For a Gaussian likelihood in a linear forward model (the
//! [`NormPosterior`](crate::NormPosterior) case) the log-likelihood is
//! `−½·S/σ² − K`, and on the ellipse the residual vector is
//! `c0 − cos φ·A − sin φ·V` with `c0 = p − X m`, `A = X(θ−m)` and
//! `V = X ν`. So the square-sum `S` is a quadratic in `(cos φ, sin φ)`
//! whose six coefficients are dot products computed once per
//! transition. An [`EllipseScreen`] holds those coefficients plus a
//! rigorous bound on the distance between the quadratic's value and
//! the log-likelihood the model *computes* at the rounded proposal, so
//! [`EllipseScreen::rejects`] answers "certainly `ll ≤ log_y`" in O(1)
//! and every other case falls back to the exact evaluation.
//!
//! # The bound
//!
//! Write `u = 2⁻⁵³` for the unit roundoff and `γ_n = n·u/(1 − n·u)`
//! (Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1);
//! every rounded operation is `fl(a ∘ b) = (a ∘ b)(1 + δ)`, `|δ| ≤ u`,
//! plus, for products only, an absolute underflow term below
//! `2⁻¹⁰⁷⁵`. `c = cos φ` and `s = sin φ` are the doubles the kernel
//! computes; they are treated as exact inputs, so nothing below
//! depends on how well they approximate the true sine and cosine.
//! Let `q` be the number of observations, `k` the dimension, `U_b =
//! Σ_k |u_bk|` the 1-norm of design row `b`, `P_b = |p_b| + Σ_k
//! |u_bk||m_k|`, `α = max_k |fl(θ_k − m_k)|`, `β = max_k |ν_k|`, and
//! `E_b = P_b + U_b·t` with `t = |c|·α + |s|·β`.
//!
//! 1. *Proposal.* The kernel computes
//!    `θ̂_k = fl(fl(m + fl(fl(θ_k−m)·c)) + fl(ν_k·s))`, so
//!    `|θ̂_k − θ*_k| ≤ γ_4·(|m_k| + |θ_k−m_k||c| + |ν_k||s|)` against
//!    the exact ellipse point `θ*`.
//! 2. *Residual.* Each prediction is a `+0.0`-seeded sum of `k`
//!    products, within `γ_k·Σ_k|u_bk||θ̂_k|` of `u_b·θ̂`, and
//!    `r̂_b = fl(p_b − pred_b)` adds one more rounding. Together with
//!    step 1, `|r̂_b − r*_b| ≤ γ_{k+5}·E_b`, where `r*_b = p_b − u_b·θ*`
//!    (every `|u_b|`-weighted magnitude sum is at most `U_b` times the
//!    largest magnitude, which is how `α` and `β` enter).
//! 3. *The screen's own residual.* The screen uses the computed
//!    `ĉ0_b`, `Â_b` and `V̂_b` (the same `+0.0`-seeded ascending-k
//!    sums), so `r̃_b = ĉ0_b − c·Â_b − s·V̂_b` satisfies `|r̃_b − r*_b|
//!    ≤ γ_{k+1}·E_b`. Hence `|r̂_b − r̃_b| ≤ γ_{2k+6}·E_b`, and by
//!    Cauchy–Schwarz the square-sums `Σ r̂²` and `S̃ = Σ r̃²` differ by
//!    at most `2·D·√S̃ + D²` with `D = γ_{2k+6}·√(Σ E_b²)`.
//! 4. *Expanded form.* The screen evaluates `S̃` as
//!    `C00 − 2c·C0A − 2s·C0V + c²·CAA + 2cs·CAV + s²·CVV` from
//!    coefficients that are themselves rounded sums of `q` products.
//!    Each coefficient is within `γ_q` of the exact sum of its terms'
//!    magnitudes, and the expression adds at most ten more roundings,
//!    so the computed `Ŝ` is within
//!    `γ_{q+10}·Σ_b (|ĉ0_b| + |c||Â_b| + |s||V̂_b|)²`, at most
//!    `γ_{q+10}·(1+γ_{k+1})²·Σ E_b²`, of `S̃`. This is
//!    the cancellation-prone term: it scales with the magnitudes, not
//!    with the (possibly much smaller) residuals.
//! 5. *Square-sum.* The model's `acc = fl(Σ r̂_b²)` is within
//!    `γ_q·Σ r̂_b² ≤ γ_q·(√S̃ + D)²` of `Σ r̂_b²`.
//! 6. *Final step.* The model returns `f(acc) = fl(fl(fl(−½·acc)·w) − K)`
//!    with the stored doubles `w = 1/σ²` and `K = q·(ln σ + ½ ln 2π)`,
//!    and the screen reports `f(Ŝ)` through the same expression. For
//!    any two arguments,
//!    `|f(a) − f(b)| ≤ ½w·|a − b| + u·w·(|a| + |b|) + 2u·|K|` plus
//!    underflow terms.
//!
//! Collecting steps 3–5, `|acc − Ŝ| ≤ B₁ + 2D·√S̃ + D² + γ·(√S̃ + D)²`
//! with `B₁ = γ·Σ E_b²` from step 4, where every `γ_j` above has `j ≤
//! N = 2q + 4k + 32` and one `γ = γ_N` is used throughout. Then `S̃ ≤
//! Ŝ⁺ + B₁` (`Ŝ⁺ = max(Ŝ, 0)`), `2D·√S̃ ≤ γ·S̃ + D²/γ` (AM–GM) and
//! `D² ≤ 2γ²·Σ E_b²` remove every square root, and the sum is at most
//! `B_acc = 4γ·(Σ E_b² + Ŝ⁺)`. Step 6 turns it into the
//! log-likelihood bound `½w·B_acc + u·w·(2|Ŝ| + B_acc) + 2u·|K|`.
//! `Σ E_b² = ΣP² + 2t·ΣPU + t²·ΣU²` with the three sums fixed per
//! model, so one angle costs a few dozen flops: no square root, no
//! division.
//!
//! Underflow adds at most `τ = 2⁻¹⁰⁷⁰·(√ΣU² + k√q)` to `D` and
//! `(2q + 2)·2⁻¹⁰⁷⁰` to `B₁`; carried through the same steps, these
//! grow `B_acc` by less than `(4q + 5)·2⁻¹⁰²² + 3τ²/γ` (with
//! `f64::MIN_POSITIVE = 2⁻¹⁰²²` standing in for `2⁻¹⁰⁷⁰` in `τ`) and
//! the final bound by `(w + 1)·2⁻¹⁰²²`. The reported bound is twice
//! the first-order sum: the neglected second-order factors are
//! `(1 + γ)ʲ` with `j < 16` and `N·u ≤ 2⁻²⁰` (the screen refuses
//! larger models), and the bound's own evaluation is a sum of
//! non-negative terms with fewer than 30 roundings.
//!
//! Overflow needs no term: an infinite intermediate in the exact path
//! makes the computed log-likelihood `−∞` or NaN, which never exceeds
//! `log_y`, so rejecting it agrees with the exact path; an infinite or
//! NaN intermediate in the screen makes its estimate non-finite, which
//! is "undecided".

/// Unit roundoff of `f64`.
const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

/// `γ_n = n·u / (1 − n·u)`, or `None` once `n·u` exceeds `2⁻²⁰`.
fn gamma(n: usize) -> Option<f64> {
    let nu = n as f64 * UNIT_ROUNDOFF;
    (nu <= 1.0 / (1u64 << 20) as f64).then(|| nu / (1.0 - nu))
}

/// The parts of an [`EllipseScreen`] that are fixed per model: the
/// shape, the likelihood's stored constants, and the magnitude sums of
/// the error bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ScreenBase {
    /// `4γ_N` for the model's shape (see the module docs).
    gamma4: f64,
    /// Underflow allowance added to `B_acc`.
    tiny: f64,
    /// The angle-independent part of the doubled bound:
    /// `4u·|K| + 2(w + 1)·2⁻¹⁰²²`.
    floor: f64,
    /// The magnitude sums and `Σ ĉ0_b²`.
    rows: RowSums,
    /// `1/σ²`, exactly as the model's likelihood uses it.
    inv_var: f64,
    /// `q·(ln σ + ½ ln 2π)`, exactly as the model's likelihood uses it.
    norm_const: f64,
}

/// The per-model row sums a [`ScreenBase`] is folded from.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct RowSums {
    /// `Σ ĉ0_b²`.
    c00: f64,
    /// `Σ P_b²`.
    p2: f64,
    /// `Σ P_b·U_b`.
    pu: f64,
    /// `Σ U_b²`.
    u2: f64,
}

impl RowSums {
    /// Folds one row's `ĉ0_b`, `P_b` and `U_b`.
    pub fn add(&mut self, c0: f64, p: f64, u: f64) {
        self.c00 += c0 * c0;
        self.p2 += p * p;
        self.pu += p * u;
        self.u2 += u * u;
    }
}

/// One transition's square-sum coefficients that involve `A` or `V`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct StepSums {
    c0a: f64,
    c0v: f64,
    caa: f64,
    cav: f64,
    cvv: f64,
}

impl StepSums {
    /// Folds one row's `ĉ0_b`, `Â_b` and `V̂_b`.
    pub fn add(&mut self, c0: f64, a: f64, v: f64) {
        self.c0a += c0 * a;
        self.c0v += c0 * v;
        self.caa += a * a;
        self.cav += a * v;
        self.cvv += v * v;
    }
}

impl ScreenBase {
    /// Folds the per-model constants of a `q × k` model; `None` for a
    /// model too large for the bound (`N·u > 2⁻²⁰`) or with a
    /// non-finite constant.
    pub fn new(q: usize, k: usize, rows: RowSums, inv_var: f64, norm_const: f64) -> Option<Self> {
        let gamma = gamma(2 * q + 4 * k + 32)?;
        let tau = f64::MIN_POSITIVE * (rows.u2.sqrt() + k as f64 * (q as f64).sqrt());
        let base = ScreenBase {
            gamma4: 4.0 * gamma,
            tiny: (4 * q + 5) as f64 * f64::MIN_POSITIVE + 3.0 * tau * tau / gamma,
            floor: 4.0 * UNIT_ROUNDOFF * norm_const.abs()
                + 2.0 * (inv_var + 1.0) * f64::MIN_POSITIVE,
            rows,
            inv_var,
            norm_const,
        };
        [
            rows.c00, rows.p2, rows.pu, rows.u2, base.tiny, base.floor, inv_var,
        ]
        .iter()
        .all(|x| x.is_finite())
        .then_some(base)
    }

    /// Completes the screen with one transition's coefficients and the
    /// magnitudes `α = max |fl(θ_k − m_k)|` and `β = max |ν_k|`;
    /// `None` if any of them is not finite.
    pub fn screen(&self, sums: StepSums, alpha: f64, beta: f64) -> Option<EllipseScreen> {
        [
            sums.c0a, sums.c0v, sums.caa, sums.cav, sums.cvv, alpha, beta,
        ]
        .iter()
        .all(|x| x.is_finite())
        .then_some(EllipseScreen {
            base: *self,
            sums,
            alpha,
            beta,
        })
    }
}

/// A per-transition quadratic model of the log-likelihood along one
/// elliptical-slice ellipse, with a rigorous bound on its distance
/// from the log-likelihood the model computes at each rounded
/// proposal (derivation in the [module docs](self)).
///
/// Built by [`BayesModel::ellipse_screen`](crate::BayesModel::ellipse_screen)
/// once per transition; each query then costs O(1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EllipseScreen {
    base: ScreenBase,
    sums: StepSums,
    alpha: f64,
    beta: f64,
}

/// The screen's view of one proposal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScreenEstimate {
    /// The quadratic's log-likelihood at the proposal.
    pub value: f64,
    /// A bound on `|value − computed log-likelihood|` at the rounded
    /// proposal.
    pub bound: f64,
}

impl EllipseScreen {
    /// The estimate at the proposal whose angle has the computed
    /// cosine `cos` and sine `sin`, or `None` when the estimate or its
    /// bound is not finite.
    pub fn estimate(&self, cos: f64, sin: f64) -> Option<ScreenEstimate> {
        let (b, r, c) = (&self.base, &self.base.rows, &self.sums);
        let s_hat = r.c00 - 2.0 * (cos * c.c0a + sin * c.c0v)
            + cos * (cos * c.caa + 2.0 * sin * c.cav)
            + sin * sin * c.cvv;
        let t = cos.abs() * self.alpha + sin.abs() * self.beta;
        let magnitude = r.p2 + t * (2.0 * r.pu + t * r.u2);
        let b_acc = b.gamma4 * (magnitude + s_hat.max(0.0)) + b.tiny;
        let value = -0.5 * s_hat * b.inv_var - b.norm_const;
        let bound = b.inv_var
            * (b_acc * (1.0 + 2.0 * UNIT_ROUNDOFF) + 4.0 * UNIT_ROUNDOFF * s_hat.abs())
            + b.floor;
        (value.is_finite() && bound.is_finite()).then_some(ScreenEstimate { value, bound })
    }

    /// Whether the proposal at (`cos`, `sin`) certainly has a computed
    /// log-likelihood of at most `log_y`, so elliptical slice rejects
    /// it without evaluating. `false` means undecided: a non-finite
    /// `log_y`, a non-finite estimate, or a proposal within the bound
    /// of the slice.
    pub fn rejects(&self, cos: f64, sin: f64, log_y: f64) -> bool {
        // A rounded sum below a double implies the exact sum is below
        // it too (rounding is monotone), so `ll ≤ value + bound < log_y`.
        log_y.is_finite()
            && self
                .estimate(cos, sin)
                .is_some_and(|e| e.value + e.bound < log_y)
    }
}
