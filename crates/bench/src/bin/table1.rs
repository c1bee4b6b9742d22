//! Reproduces **Table I** of the paper: correlation coefficients between
//! the magnitude of the loss sensitivity `|∂L/∂u_j|` and the 1-norms of
//! the weight-matrix columns, for a 1-layer network on both datasets and
//! both heads, averaged over 5 independent runs.
//!
//! Two statistics per (dataset, activation, split):
//!
//! * **Mean correlation** — Pearson r computed per test/train sample,
//!   then averaged (the paper's left data columns; expected *lower*).
//! * **Correlation of mean** — Pearson r between the dataset-mean
//!   sensitivity map and the 1-norms (right columns; expected ≈ 0.9+).
//!
//! Usage: `cargo run -p xbar-bench --release --bin table1 [--quick] [--json results/table1.json]`

use serde::Serialize;
use xbar_bench::{paper_configs, parse_args, train_victim, write_json, DatasetKind, HeadKind};
use xbar_core::report::{fmt, format_table};
use xbar_linalg::par;
use xbar_nn::sensitivity::{abs_input_gradients, mean_abs_sensitivity};
use xbar_stats::aggregate::RunSummary;
use xbar_stats::correlation::{pearson, pearson_lenient};

#[derive(Debug, Serialize)]
struct Table1Row {
    dataset: &'static str,
    activation: &'static str,
    mean_corr_train: RunSummary,
    mean_corr_test: RunSummary,
    corr_of_mean_train: RunSummary,
    corr_of_mean_test: RunSummary,
}

/// Per-run statistics for one configuration.
fn run_once(
    dataset: DatasetKind,
    head: HeadKind,
    num_samples: usize,
    seed: u64,
) -> (f64, f64, f64, f64) {
    let victim = train_victim(dataset, head, num_samples, seed);
    let norms = victim.net.column_l1_norms();
    let stat = |ds: &xbar_data::Dataset| -> (f64, f64) {
        let targets = ds.one_hot_targets();
        let abs = abs_input_gradients(&victim.net, ds.inputs(), &targets, head.loss())
            .expect("victim/data shapes agree");
        // Mean correlation: per-sample r, averaged (skip degenerate rows).
        let mut rs = Vec::with_capacity(abs.rows());
        for i in 0..abs.rows() {
            if let Some(r) = pearson_lenient(abs.row(i), &norms) {
                rs.push(r);
            }
        }
        let mean_corr = rs.iter().sum::<f64>() / rs.len().max(1) as f64;
        // Correlation of the mean map.
        let mean_map = mean_abs_sensitivity(&victim.net, ds.inputs(), &targets, head.loss())
            .expect("victim/data shapes agree");
        let corr_of_mean = pearson(&mean_map, &norms).unwrap_or(0.0);
        (mean_corr, corr_of_mean)
    };
    let (mc_train, cm_train) = stat(&victim.train);
    let (mc_test, cm_test) = stat(&victim.test);
    (mc_train, mc_test, cm_train, cm_test)
}

fn main() {
    let (json_path, quick) = parse_args();
    let runs: u64 = if quick { 2 } else { 5 };
    let num_samples = if quick { 800 } else { 4000 };

    println!("Table I: correlation between |loss sensitivity| and weight-column 1-norms");
    println!("({runs} runs per configuration, {num_samples} samples per dataset)\n");

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for (dataset, head) in paper_configs() {
        let mut stats = vec![(0.0, 0.0, 0.0, 0.0); runs as usize];
        par::for_each_run(&mut stats, 0, |offset, run| {
            for (r, stat) in (offset as u64..).zip(run.iter_mut()) {
                *stat = run_once(dataset, head, num_samples, 100 + r);
            }
        });
        let col = |f: fn(&(f64, f64, f64, f64)) -> f64| -> RunSummary {
            RunSummary::from_values(&stats.iter().map(f).collect::<Vec<f64>>())
        };
        let mc_train = col(|s| s.0);
        let mc_test = col(|s| s.1);
        let cm_train = col(|s| s.2);
        let cm_test = col(|s| s.3);
        rows.push(vec![
            dataset.label().to_string(),
            head.label().to_string(),
            fmt(mc_train.mean, 2),
            fmt(mc_test.mean, 2),
            fmt(cm_train.mean, 2),
            fmt(cm_test.mean, 2),
        ]);
        json_rows.push(Table1Row {
            dataset: dataset.label(),
            activation: head.label(),
            mean_corr_train: mc_train,
            mean_corr_test: mc_test,
            corr_of_mean_train: cm_train,
            corr_of_mean_test: cm_test,
        });
    }

    println!(
        "{}",
        format_table(
            &[
                "Dataset",
                "Activation",
                "MeanCorr(Train)",
                "MeanCorr(Test)",
                "CorrOfMean(Train)",
                "CorrOfMean(Test)",
            ],
            &rows,
        )
    );
    println!("Paper reference (MNIST/CIFAR-10):");
    println!("  MNIST  Linear  0.70 0.70 | 0.99 0.98");
    println!("  MNIST  Softmax 0.52 0.52 | 0.92 0.92");
    println!("  CIFAR  Linear  0.26 0.26 | 0.87 0.87");
    println!("  CIFAR  Softmax 0.33 0.33 | 0.91 0.91");
    println!(
        "Expected shape: CorrOfMean >> MeanCorr everywhere; digits MeanCorr > objects MeanCorr."
    );

    if let Some(path) = json_path {
        write_json(&path, &json_rows);
    } else {
        write_json("results/table1.json", &json_rows);
    }
}
