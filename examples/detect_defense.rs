//! Defender's view: using the same current signatures the attacker
//! exploits to *detect* the attack (the DetectX idea, the paper's
//! reference [13]).
//!
//! Run with: `cargo run --release --example detect_defense`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xbar_power_attacks::attacks::detect::{PerClassDetector, PowerAnomalyDetector};
use xbar_power_attacks::attacks::oracle::{Oracle, OracleConfig, OutputAccess};
use xbar_power_attacks::attacks::pixel_attack::{
    single_pixel_attack_batch, PixelAttackMethod, PixelAttackResources,
};
use xbar_power_attacks::attacks::probe::probe_column_norms;
use xbar_power_attacks::attacks::report::{fmt, format_table};
use xbar_power_attacks::data::synth::digits::DigitsConfig;
use xbar_power_attacks::nn::activation::Activation;
use xbar_power_attacks::nn::loss::Loss;
use xbar_power_attacks::nn::network::SingleLayerNet;
use xbar_power_attacks::nn::train::{train, SgdConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Victim and data.
    let ds = DigitsConfig::default()
        .num_samples(1200)
        .seed(13)
        .generate();
    let split = ds.split_frac(0.8)?;
    let mut rng = ChaCha8Rng::seed_from_u64(14);
    let mut net = SingleLayerNet::new_random(784, 10, Activation::Softmax, &mut rng);
    let sgd = SgdConfig {
        learning_rate: 0.05,
        epochs: 15,
        ..SgdConfig::default()
    };
    train(&mut net, &split.train, Loss::CrossEntropy, &sgd, &mut rng)?;
    let mut oracle = Oracle::new(
        net.clone(),
        &OracleConfig::ideal().with_access(OutputAccess::None),
        15,
    )?;

    // Defender calibrates current signatures on clean traffic — both a
    // single global band and per-predicted-class bands (DetectX-style).
    let clean_rows: Vec<&[f64]> = (0..split.train.len())
        .map(|i| split.train.input(i))
        .collect();
    let clean_powers: Vec<f64> = oracle
        .query_batch(&clean_rows)?
        .iter()
        .map(|r| r.observation.power)
        .collect();
    let global = PowerAnomalyDetector::calibrate(&clean_powers, 3.0)?;
    let clean_preds = oracle.eval_predict_batch(split.train.inputs())?;
    let per_class_samples: Vec<(usize, f64)> = clean_preds
        .iter()
        .zip(&clean_powers)
        .map(|(&c, &p)| (c, p))
        .collect();
    let per_class = PerClassDetector::calibrate(&per_class_samples, 10, 3.0)?;
    println!(
        "global band: clean power {:.1} ± {:.1}; per-class bands calibrated for 10 classes\n",
        global.mean(),
        global.std()
    );

    // Attacker probes and attacks at several strengths; defender measures
    // detection vs miss under both calibrations.
    let norms = probe_column_norms(&mut oracle, 1.0, 1)?;
    let targets = split.test.one_hot_targets();
    let observe = |oracle: &mut Oracle,
                   inputs: &xbar_power_attacks::linalg::Matrix|
     -> Result<Vec<(usize, f64)>, Box<dyn std::error::Error>> {
        let preds = oracle.eval_predict_batch(inputs)?;
        let rows: Vec<&[f64]> = (0..inputs.rows()).map(|i| inputs.row(i)).collect();
        let records = oracle.query_batch(&rows)?;
        Ok(preds
            .iter()
            .zip(&records)
            .map(|(&c, r)| (c, r.observation.power))
            .collect())
    };
    let held_out = observe(&mut oracle, split.test.inputs())?;
    let fp_global = global.detection_rate(&held_out.iter().map(|&(_, p)| p).collect::<Vec<f64>>());
    let fp_class = per_class.detection_rate(&held_out);
    let mut rows = Vec::new();
    // Detection rates (global, per-class) at the strongest attack.
    let mut strongest = (0.0, 0.0);
    for strength in [0.5, 1.0, 2.0, 4.0, 8.0] {
        let adv = single_pixel_attack_batch(
            PixelAttackMethod::NormPlus,
            split.test.inputs(),
            &targets,
            PixelAttackResources::norms_only(&norms),
            strength,
            &mut rng,
        )?;
        let adv_obs = observe(&mut oracle, &adv)?;
        let adv_acc = oracle.eval_accuracy(&adv, split.test.labels())?;
        let tp_global =
            global.detection_rate(&adv_obs.iter().map(|&(_, p)| p).collect::<Vec<f64>>());
        let tp_class = per_class.detection_rate(&adv_obs);
        strongest = (tp_global, tp_class);
        rows.push(vec![
            format!("{strength}"),
            fmt(adv_acc, 3),
            fmt(tp_global, 3),
            fmt(tp_class, 3),
        ]);
    }
    println!("norm-guided single-pixel attack vs current-signature detection:");
    println!(
        "{}",
        format_table(
            &[
                "strength",
                "attacked acc",
                "global detect",
                "per-class detect"
            ],
            &rows
        )
    );
    println!("false positives on clean traffic: global {fp_global:.3}, per-class {fp_class:.3}");

    // The probing phase itself is far more exposed than the evasion
    // phase: basis inputs e_j draw a tiny, wildly out-of-distribution
    // current.
    let n = oracle.num_inputs();
    let mut probe_hits = 0;
    for j in (0..n).step_by(16) {
        let mut e = vec![0.0; n];
        e[j] = 1.0;
        let p = oracle.query(&e)?.observation.power;
        if global.is_anomalous(p) {
            probe_hits += 1;
        }
    }
    println!(
        "\nprobe-phase detection: {probe_hits}/{} basis queries flagged by the global band",
        n.div_ceil(16)
    );
    println!(
        "Takeaway: per-class conditioning tightens the bands ({:.1}x detection at",
        strongest.1 / strongest.0
    );
    println!("strength 8) but single-pixel evasion stays mostly below image traffic's");
    println!("power noise floor — whereas the Case-1 *probing* phase, whose basis");
    println!("inputs draw tiny currents, is trivially detectable.");
    Ok(())
}
