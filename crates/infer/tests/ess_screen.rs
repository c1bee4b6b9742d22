//! The elliptical slice screen: its error bound holds for every
//! rounded proposal, screened chains are bit-identical to unscreened
//! ones, non-finite inputs fall back to exact evaluation, and on a
//! campaign-shaped posterior the screen decides most proposals.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use xbar_core::oracle::{Oracle, OracleConfig, OutputAccess};
use xbar_crossbar::power::PowerModel;
use xbar_infer::{
    estimate_noise_sigma, random_design, run_chains, BayesModel, ChainConfig, ChainResult, Kernel,
    NormPosterior, PowerObservations, Prior,
};
use xbar_linalg::Matrix;
use xbar_nn::activation::Activation;
use xbar_nn::network::SingleLayerNet;

/// The same model without the screen hook: every proposal evaluated.
struct Unscreened<'a>(&'a NormPosterior);

impl BayesModel for Unscreened<'_> {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn priors(&self) -> &[Prior] {
        self.0.priors()
    }
    fn log_likelihood(&self, theta: &[f64]) -> f64 {
        self.0.log_likelihood(theta)
    }
}

/// One arbitrary entry: exact zeros of either sign, ordinary values of
/// either sign, and magnitudes far apart so rounding order matters.
fn entry(rng: &mut ChaCha8Rng) -> f64 {
    match rng.gen_range(0..6u32) {
        0 => 0.0,
        1 => -0.0,
        2 => rng.gen_range(-1.0..1.0) * 1e6,
        3 => rng.gen_range(-1.0..1.0) * 1e-6,
        _ => rng.gen_range(-2.0..2.0),
    }
}

/// A model over the last `k` of `k + 2` input columns (in reverse, so
/// subset order differs from column order) with the given design rows
/// and powers.
fn build_model(design: &Matrix, powers: Vec<f64>, priors: Vec<Prior>, sigma: f64) -> NormPosterior {
    let (q, k) = (design.rows(), design.cols());
    let subset: Vec<usize> = (2..k + 2).rev().collect();
    let mut inputs = Matrix::zeros(q, k + 2);
    for b in 0..q {
        for (kk, &j) in subset.iter().enumerate() {
            inputs[(b, j)] = design[(b, kk)];
        }
    }
    let obs = PowerObservations { inputs, powers };
    NormPosterior::new(&obs, &subset, priors, sigma).unwrap()
}

/// The elliptical slice proposal exactly as the kernel rounds it.
fn proposal(model: &NormPosterior, theta: &[f64], nu: &[f64], cos: f64, sin: f64) -> Vec<f64> {
    model
        .priors()
        .iter()
        .zip(theta.iter().zip(nu))
        .map(|(p, (&x, &v))| {
            let m = p.mean();
            m + (x - m) * cos + v * sin
        })
        .collect()
}

/// Proposals that took the exact path and were rejected: every exact
/// evaluation past the initial state's and each transition's accepted
/// one.
fn exact_rejections(chains: &[ChainResult]) -> u64 {
    chains.iter().map(|c| c.density_evals - 1 - c.steps).sum()
}

/// Runs `model` screened and through [`Unscreened`] and asserts the
/// two agree bit for bit, with the screened proposals accounted for.
fn assert_screen_is_invisible(
    model: &NormPosterior,
    config: &ChainConfig,
    seed: u64,
    chains: usize,
) -> Result<Vec<ChainResult>, TestCaseError> {
    let kernel = Kernel::EllipticalSlice;
    let screened = run_chains(model, &kernel, config, seed, chains, 1).unwrap();
    let plain = run_chains(&Unscreened(model), &kernel, config, seed, chains, 1).unwrap();
    for (s, p) in screened.iter().zip(&plain) {
        prop_assert_eq!(s.draws.len(), p.draws.len());
        for (a, b) in s.draws.iter().zip(&p.draws) {
            let a: Vec<u64> = a.iter().map(|x| x.to_bits()).collect();
            let b: Vec<u64> = b.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(s.steps, p.steps);
        prop_assert_eq!(s.density_evals + s.screened, p.density_evals);
        prop_assert_eq!(p.screened, 0);
    }
    Ok(screened)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// (a) The bound itself: at random models, points, auxiliary draws
    /// and angles, the screen's estimate is within its bound of the
    /// log-likelihood the model computes at the rounded proposal.
    #[test]
    fn screen_bound_covers_the_computed_likelihood(
        q in 1usize..40,
        k in 1usize..20,
        sigma in 0.01f64..10.0,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut design = Matrix::zeros(q, k);
        for b in 0..q {
            for kk in 0..k {
                design[(b, kk)] = entry(&mut rng);
            }
        }
        let powers: Vec<f64> = (0..q).map(|_| entry(&mut rng)).collect();
        let priors: Vec<Prior> = (0..k)
            .map(|_| Prior::normal(entry(&mut rng), rng.gen_range(0.01..3.0)).unwrap())
            .collect();
        let model = build_model(&design, powers, priors, sigma);
        for _ in 0..4 {
            let theta: Vec<f64> = (0..k).map(|_| entry(&mut rng)).collect();
            let nu: Vec<f64> = (0..k).map(|_| entry(&mut rng)).collect();
            let screen = model.ellipse_screen(&theta, &nu).expect("finite inputs screen");
            for i in 0..8 {
                let angle = if i == 0 { 0.0 } else { rng.gen_range(-6.3..6.3) };
                let (sin, cos) = f64::sin_cos(angle);
                let ll = model.log_likelihood(&proposal(&model, &theta, &nu, cos, sin));
                let est = screen.estimate(cos, sin).expect("finite inputs estimate");
                prop_assert!(
                    (est.value - ll).abs() <= est.bound,
                    "screen {} vs computed {} exceeds bound {}", est.value, ll, est.bound
                );
            }
        }
    }

    /// (b) Screened chains equal unscreened ones over random designs,
    /// priors, noise scales, seeds and schedules.
    #[test]
    fn screened_chains_are_bit_identical(
        q in 1usize..48,
        k in 1usize..6,
        noise in 0.005f64..1.0,
        prior_mean in -2.0f64..2.0,
        prior_sd in 0.05f64..2.0,
        burn_in in 0usize..20,
        samples in 1usize..20,
        thin in 1usize..3,
        chains in 1usize..3,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let truth: Vec<f64> = (0..k).map(|_| rng.gen_range(0.0..2.0)).collect();
        let mut design = Matrix::zeros(q, k);
        let mut powers = Vec::with_capacity(q);
        for b in 0..q {
            let mut power = noise * rng.gen_range(-1.0..1.0);
            for (kk, &t) in truth.iter().enumerate() {
                design[(b, kk)] = rng.gen_range(0.0..1.0);
                power += design[(b, kk)] * t;
            }
            powers.push(power);
        }
        let priors = vec![Prior::normal(prior_mean, prior_sd).unwrap(); k];
        let model = build_model(&design, powers, priors, noise);
        let config = ChainConfig::new(burn_in, samples, thin).unwrap();
        assert_screen_is_invisible(&model, &config, seed, chains)?;
    }

    /// (b) Near ties: powers sit on a huge common offset, so the
    /// magnitude sums (and with them the bound) are comparable to the
    /// log-likelihood's variation along the ellipse. Some proposals
    /// then land within the bound of the slice and must take the exact
    /// path, and some of those are rejected there.
    #[test]
    fn near_ties_fall_back_to_the_exact_path(
        q in 8usize..32,
        k in 1usize..5,
        offset_exp in 12i32..14,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let offset = 10f64.powi(offset_exp);
        let mut design = Matrix::zeros(q, k);
        let mut powers = Vec::with_capacity(q);
        for b in 0..q {
            let mut power = offset;
            for kk in 0..k {
                design[(b, kk)] = rng.gen_range(0.0..1.0);
                power += design[(b, kk)];
            }
            powers.push(power);
        }
        // The log-likelihood changes by O(10) when θ moves by its prior
        // sd, so most proposals are still rejected.
        let sigma = (offset * (q * k) as f64 / 10.0).sqrt();
        let priors = vec![Prior::normal(1.0, 1.0).unwrap(); k];
        let model = build_model(&design, powers, priors, sigma);
        let config = ChainConfig::new(50, 200, 1).unwrap();
        let chains = assert_screen_is_invisible(&model, &config, seed, 2)?;
        prop_assert!(chains.iter().map(|c| c.screened).sum::<u64>() > 0, "nothing screened");
        prop_assert!(exact_rejections(&chains) > 0, "no proposal was undecided and rejected");
    }
}

/// A small well-posed model and one screen of it.
fn small_model(powers: Vec<f64>, sigma: f64) -> NormPosterior {
    let design = Matrix::from_rows(&[&[0.5, 0.25], &[0.1, 0.9], &[0.7, 0.3]]);
    build_model(
        &design,
        powers,
        vec![Prior::normal(1.0, 0.5).unwrap(); 2],
        sigma,
    )
}

/// (c) Non-finite points, draws, observations and constants give no
/// screen; non-finite slice levels are never screened away.
#[test]
fn non_finite_inputs_fall_back_to_the_exact_path() {
    let model = small_model(vec![0.8, 1.0, 1.0], 0.1);
    let screen = model.ellipse_screen(&[1.0, 1.2], &[0.3, -0.2]).unwrap();
    // A level far above every proposal rejects; a non-finite one never
    // does.
    assert!(screen.rejects(0.5, 0.5, 1e9));
    for level in [f64::NEG_INFINITY, f64::INFINITY, f64::NAN] {
        assert!(!screen.rejects(0.5, 0.5, level), "log_y = {level}");
    }
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(model.ellipse_screen(&[bad, 1.0], &[0.3, -0.2]).is_none());
        assert!(model.ellipse_screen(&[1.0, 1.0], &[0.3, bad]).is_none());
        assert!(small_model(vec![0.8, bad, 1.0], 0.1)
            .ellipse_screen(&[1.0, 1.2], &[0.3, -0.2])
            .is_none());
    }
    // Magnitudes whose squares overflow, and a noise scale whose
    // inverse variance does.
    assert!(small_model(vec![0.8, 1e200, 1.0], 0.1)
        .ellipse_screen(&[1.0, 1.2], &[0.3, -0.2])
        .is_none());
    assert!(small_model(vec![0.8, 1.0, 1.0], 1e-200)
        .ellipse_screen(&[1.0, 1.2], &[0.3, -0.2])
        .is_none());
}

/// (c) A NaN likelihood everywhere (a NaN observation) means no screen:
/// the chain spends its shrink cap on exact evaluations, exactly as
/// without the hook.
#[test]
fn nan_likelihood_chains_match_the_unscreened_kernel() {
    let model = small_model(vec![0.8, f64::NAN, 1.0], 0.1);
    let config = ChainConfig::new(1, 2, 1).unwrap();
    let chains = assert_screen_is_invisible(&model, &config, 3, 1).unwrap();
    assert_eq!(chains[0].screened, 0);
    assert!(chains[0].density_evals > 1000);
}

/// (d) The campaign's posterior shape: a 10 × 784 victim, 16 inferred
/// columns, 128 design rows, `N(1, 0.5)` priors, power noise 0.02, and
/// 2 chains of 4000 elliptical slice steps. The counts are a pure
/// function of the seeds, so this pins how much exact work the screen
/// leaves.
#[test]
fn campaign_shaped_chains_evaluate_few_proposals_exactly() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut w = Matrix::zeros(10, 784);
    for i in 0..10 {
        for j in 0..784 {
            w[(i, j)] = rng.gen_range(-0.2..0.2);
        }
    }
    let net = SingleLayerNet::from_weights(w, Activation::Identity);
    let cfg = OracleConfig::ideal()
        .with_access(OutputAccess::None)
        .with_power(PowerModel::default().with_noise(0.02));
    let mut oracle = Oracle::new(net, &cfg, 9).unwrap();
    // A 4 × 4 grid of pixels in the middle of the 28 × 28 image.
    let subset: Vec<usize> = (6..22)
        .step_by(4)
        .flat_map(|r| (6..22).step_by(4).map(move |c| r * 28 + c))
        .collect();
    let sigma = estimate_noise_sigma(&mut oracle, &[0.5; 784], 24).unwrap();
    let design = random_design(128, 784, Some(&subset), 3).unwrap();
    let obs = PowerObservations::collect(&mut oracle, &design).unwrap();
    let priors = vec![Prior::normal(1.0, 0.5).unwrap(); subset.len()];
    let model = NormPosterior::new(&obs, &subset, priors, (sigma * 1.2).max(1e-6)).unwrap();
    let config = ChainConfig::new(2000, 1000, 2).unwrap();
    let chains = run_chains(&model, &Kernel::EllipticalSlice, &config, 7, 2, 1).unwrap();

    let exact: u64 = chains.iter().map(|c| c.density_evals - 1).sum();
    let screened: u64 = chains.iter().map(|c| c.screened).sum();
    let proposals = exact + screened;
    assert_eq!(chains.iter().map(|c| c.steps).sum::<u64>(), 8000);
    assert!(
        exact * 5 <= proposals,
        "{exact} exact evaluations of {proposals} proposals exceed 20%"
    );
}
