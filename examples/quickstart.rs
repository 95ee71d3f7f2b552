//! Quickstart: run CCQ end-to-end on a small MLP in a few seconds.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

// Tables and CSVs go to stdout by design.
#![allow(clippy::print_stdout)]

use ccq_repro::ccq::{CcqConfig, CcqRunner, LambdaSchedule, NullSink, RecoveryMode};
use ccq_repro::data::{gaussian_blobs, BlobsConfig};
use ccq_repro::models::mlp;
use ccq_repro::nn::train::{evaluate, train_epoch};
use ccq_repro::nn::Sgd;
use ccq_repro::quant::{BitLadder, PolicyKind};
use ccq_repro::tensor::{rng, Rng64};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A small classification task: four Gaussian blobs in 8 dimensions.
    let data = gaussian_blobs(&BlobsConfig {
        classes: 4,
        dim: 8,
        samples_per_class: 64,
        std: 0.4,
        seed: 0,
    });
    let (train, val) = data.split_at(192);
    let (train_b, val_b) = (train.batches(16), val.batches(32));

    // 2. Pre-train a full-precision baseline.
    let mut net = mlp(&[8, 24, 24, 4], PolicyKind::Pact, 1);
    let mut opt = Sgd::new(0.05).momentum(0.9);
    let mut r = rng(2);
    for _ in 0..20 {
        train_epoch(&mut net, &train_b, &mut opt, &mut r)?;
    }
    let baseline = evaluate(&mut net, &val_b)?;
    println!("fp32 baseline: {:.1}% top-1", 100.0 * baseline.accuracy);

    // 3. Let CCQ walk the bit ladder: competition picks the layer whose
    //    quantization hurts least, collaboration recovers the accuracy.
    let cfg = CcqConfig {
        ladder: BitLadder::new(&[8, 6, 4, 3, 2])?,
        lambda: LambdaSchedule::linear(0.8, 0.2, 10),
        recovery: RecoveryMode::Adaptive {
            tolerance: 0.01,
            max_epochs: 6,
        },
        // Stop at ~8x compression (≈4-bit average) instead of descending
        // all the way to 2 bits.
        target_compression: Some(8.0),
        seed: 3,
        ..CcqConfig::default()
    };
    let mut runner = CcqRunner::new(cfg);
    let mut provider = |r: &mut Rng64| {
        let _ = r;
        train_b.clone()
    };
    let report = runner.run(&mut net, &mut provider, &val_b, &mut NullSink)?;

    // 4. Inspect the learned mixed-precision assignment.
    println!("{report}");
    for (label, wbits, abits) in &report.bit_assignment {
        println!("  {label:<6} weights {wbits:>3}  activations {abits:>3}");
    }
    println!(
        "{} quantization steps, {:.2}x compression, {:.2} pts degradation",
        report.steps.len(),
        report.final_compression,
        100.0 * report.degradation()
    );
    Ok(())
}
