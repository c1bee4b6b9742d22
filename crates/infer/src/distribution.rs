//! Prior distributions: log-densities plus deterministic sampling.
//!
//! Sampling takes a caller-supplied [`ChaCha8Rng`] stream — never an
//! ambient RNG — so every draw in the inference stack is a pure
//! function of the stream's key. The chain runner keys its streams by
//! `(campaign_seed, chain_index, step)`; see [`crate::chain`].

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use xbar_linalg::standard_normal;

use crate::error::InferError;
use crate::Result;

const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_7;

/// A univariate distribution: log-density plus deterministic sampling
/// from a caller-supplied ChaCha8 stream.
pub trait Distribution {
    /// Natural log of the density at `x` (`-inf` outside the support).
    fn log_density(&self, x: f64) -> f64;
    /// Draws one sample from the supplied stream.
    fn sample(&self, rng: &mut ChaCha8Rng) -> f64;
    /// The distribution's mean.
    fn mean(&self) -> f64;
    /// The distribution's variance.
    fn variance(&self) -> f64;
}

/// Normal distribution `N(mean, sigma²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sigma: f64,
}

impl Normal {
    /// Validates `sigma > 0` (finite) and a finite mean.
    pub fn new(mean: f64, sigma: f64) -> Result<Self> {
        if !mean.is_finite() {
            return Err(InferError::InvalidParameter { name: "mean" });
        }
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(InferError::InvalidParameter { name: "sigma" });
        }
        Ok(Normal { mean, sigma })
    }

    /// The location parameter.
    pub fn location(&self) -> f64 {
        self.mean
    }

    /// The scale parameter.
    pub fn scale(&self) -> f64 {
        self.sigma
    }
}

impl Distribution for Normal {
    fn log_density(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.sigma;
        -0.5 * z * z - self.sigma.ln() - LN_SQRT_2PI
    }

    fn sample(&self, rng: &mut ChaCha8Rng) -> f64 {
        self.mean + self.sigma * standard_normal(rng)
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }
}

/// Uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Validates finite bounds with `lo < hi`.
    pub fn new(lo: f64, hi: f64) -> Result<Self> {
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(InferError::InvalidParameter { name: "bounds" });
        }
        Ok(Uniform { lo, hi })
    }
}

impl Distribution for Uniform {
    fn log_density(&self, x: f64) -> f64 {
        if x < self.lo || x >= self.hi {
            f64::NEG_INFINITY
        } else {
            -(self.hi - self.lo).ln()
        }
    }

    fn sample(&self, rng: &mut ChaCha8Rng) -> f64 {
        rng.gen_range(self.lo..self.hi)
    }

    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    fn variance(&self) -> f64 {
        let w = self.hi - self.lo;
        w * w / 12.0
    }
}

/// A prior over one dimension: the closed set of distributions the
/// samplers know how to handle. The enum (rather than trait objects)
/// keeps models `Copy`-cheap and lets the elliptical slice kernel
/// statically check for the Gaussian case it requires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Prior {
    /// Gaussian prior (the only kind elliptical slice sampling accepts).
    Normal(Normal),
    /// Uniform prior on an interval.
    Uniform(Uniform),
}

impl Prior {
    /// Gaussian prior shortcut.
    pub fn normal(mean: f64, sigma: f64) -> Result<Self> {
        Ok(Prior::Normal(Normal::new(mean, sigma)?))
    }

    /// Uniform prior shortcut.
    pub fn uniform(lo: f64, hi: f64) -> Result<Self> {
        Ok(Prior::Uniform(Uniform::new(lo, hi)?))
    }

    /// The Gaussian `(mean, sigma)` if this prior is Normal.
    pub fn as_gaussian(&self) -> Option<(f64, f64)> {
        match self {
            Prior::Normal(n) => Some((n.location(), n.scale())),
            _ => None,
        }
    }
}

impl Distribution for Prior {
    fn log_density(&self, x: f64) -> f64 {
        match self {
            Prior::Normal(d) => d.log_density(x),
            Prior::Uniform(d) => d.log_density(x),
        }
    }

    fn sample(&self, rng: &mut ChaCha8Rng) -> f64 {
        match self {
            Prior::Normal(d) => d.sample(rng),
            Prior::Uniform(d) => d.sample(rng),
        }
    }

    fn mean(&self) -> f64 {
        match self {
            Prior::Normal(d) => d.mean(),
            Prior::Uniform(d) => d.mean(),
        }
    }

    fn variance(&self) -> f64 {
        match self {
            Prior::Normal(d) => d.variance(),
            Prior::Uniform(d) => d.variance(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn stream(seed: u64, idx: u64) -> ChaCha8Rng {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        rng.set_stream(idx);
        rng
    }

    fn moments<D: Distribution>(d: &D, n: usize) -> (f64, f64) {
        let mut rng = stream(11, 1);
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        (mean, var)
    }

    #[test]
    fn normal_log_density_matches_closed_form() {
        let d = Normal::new(1.0, 2.0).unwrap();
        // At the mean: -ln(sigma) - ln(sqrt(2pi)).
        let at_mean = -(2.0f64).ln() - 0.5 * (2.0 * std::f64::consts::PI).ln();
        assert!((d.log_density(1.0) - at_mean).abs() < 1e-12);
        // One sigma out: another -1/2.
        assert!((d.log_density(3.0) - (at_mean - 0.5)).abs() < 1e-12);
    }

    #[test]
    fn uniform_density_is_flat_inside_support() {
        let d = Uniform::new(-1.0, 3.0).unwrap();
        assert!((d.log_density(0.0) - (-(4.0f64).ln())).abs() < 1e-12);
        assert_eq!(d.log_density(0.0), d.log_density(2.9));
        assert_eq!(d.log_density(-1.5), f64::NEG_INFINITY);
        assert_eq!(d.log_density(3.0), f64::NEG_INFINITY);
    }

    #[test]
    fn sample_moments_match_declared_moments() {
        let n = 40_000;
        let cases: [Prior; 2] = [
            Prior::normal(2.0, 0.5).unwrap(),
            Prior::uniform(-1.0, 2.0).unwrap(),
        ];
        for prior in cases {
            let (m, v) = moments(&prior, n);
            assert!(
                (m - prior.mean()).abs() < 0.02 * (1.0 + prior.mean().abs()),
                "{prior:?}: sample mean {m} vs {}",
                prior.mean()
            );
            assert!(
                (v - prior.variance()).abs() < 0.1 * (1.0 + prior.variance()),
                "{prior:?}: sample var {v} vs {}",
                prior.variance()
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_in_the_stream() {
        let d = Prior::normal(0.0, 1.0).unwrap();
        let a: Vec<f64> = {
            let mut rng = stream(5, 9);
            (0..8).map(|_| d.sample(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = stream(5, 9);
            (0..8).map(|_| d.sample(&mut rng)).collect()
        };
        let c: Vec<f64> = {
            let mut rng = stream(5, 10);
            (0..8).map(|_| d.sample(&mut rng)).collect()
        };
        assert_eq!(a, b, "same stream must replay the same draws");
        assert_ne!(a, c, "stream index must separate draws");
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Uniform::new(1.0, 1.0).is_err());
        assert!(Uniform::new(2.0, -2.0).is_err());
    }

    #[test]
    fn gaussian_detection() {
        assert!(Prior::normal(0.0, 1.0).unwrap().as_gaussian().is_some());
        assert!(Prior::uniform(0.0, 1.0).unwrap().as_gaussian().is_none());
    }
}
