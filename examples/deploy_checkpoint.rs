//! The deployment path end-to-end: quantize with CCQ, checkpoint to disk,
//! reload into a fresh network, pack it into a `CCQPACK` artifact and
//! validate packed integer execution against fake-quant, and produce the
//! silicon budget (energy/inference, MAC area).
//!
//! ```sh
//! cargo run --release --example deploy_checkpoint
//! ```

// Tables and CSVs go to stdout by design.
#![allow(clippy::print_stdout)]

use ccq_repro::ccq::{layer_profiles, CcqConfig, CcqRunner, NullSink, RecoveryMode};
use ccq_repro::data::{gaussian_blobs, BlobsConfig};
use ccq_repro::hw::{inference_report, model_size, MacEnergyModel};
use ccq_repro::infer::{arch, PackedModel};
use ccq_repro::models::mlp;
use ccq_repro::nn::checkpoint::Checkpoint;
use ccq_repro::nn::train::{evaluate, train_epoch};
use ccq_repro::nn::{Mode, PackedExec, Sgd};
use ccq_repro::quant::{BitLadder, PolicyKind};
use ccq_repro::tensor::{rng, Init, Rng64};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Train a baseline and let CCQ pick a mixed-precision assignment.
    // MaxAbs is the policy whose fake-quant semantics map 1:1 onto
    // integer hardware, so it is the deployment-oriented choice here.
    let data = gaussian_blobs(&BlobsConfig {
        classes: 4,
        dim: 8,
        samples_per_class: 64,
        std: 0.4,
        seed: 20,
    });
    let (train, val) = data.split_at(192);
    let (train_b, val_b) = (train.batches(16), val.batches(32));
    let mut net = mlp(&[8, 24, 4], PolicyKind::MaxAbs, 21);
    let mut opt = Sgd::new(0.05).momentum(0.9);
    let mut r = rng(22);
    for _ in 0..20 {
        train_epoch(&mut net, &train_b, &mut opt, &mut r)?;
    }
    let mut runner = CcqRunner::new(CcqConfig {
        ladder: BitLadder::new(&[8, 6, 4, 3])?,
        target_compression: Some(7.0),
        recovery: RecoveryMode::Adaptive {
            tolerance: 0.01,
            max_epochs: 5,
        },
        seed: 23,
        ..CcqConfig::default()
    });
    let mut provider = |_: &mut Rng64| train_b.clone();
    let report = runner.run(&mut net, &mut provider, &val_b, &mut NullSink)?;
    println!("{report}");

    // Checkpoint to disk (atomic: tmp + fsync + rename + dir fsync, so a
    // crash mid-save never leaves a torn file) and reload into a fresh
    // network.
    let path = std::env::temp_dir().join("ccq_deploy_example.ckpt");
    let ckpt = Checkpoint::capture(&mut net);
    ckpt.save_atomic(&path)?;
    let loaded = Checkpoint::load_file(&path)?;
    let mut deployed = mlp(&[8, 24, 4], PolicyKind::MaxAbs, 0);
    loaded.apply(&mut deployed)?;
    let acc = evaluate(&mut deployed, &val_b)?;
    println!(
        "reloaded from {} ({} state tensors): {:.1}% top-1",
        path.display(),
        loaded.tensor_count(),
        100.0 * acc.accuracy
    );

    // Pack the reloaded network into a deployable artifact and validate
    // packed integer execution against the fake-quant forward. Layers
    // with an integer activation grid run i8×i8→i32 with one f32
    // rescale; the rest fall back to f32.
    let x = Init::Uniform { lo: 0.0, hi: 1.0 }.sample(&[4, 8], &mut r);
    let y_fake = deployed.forward(&x, Mode::Eval)?;
    let artifact = PackedModel::capture(&mut deployed, &arch::mlp_arch(&[8, 24, 4]))?;
    let mut packed = PackedModel::from_bytes(&artifact.to_bytes())?.instantiate()?;
    let y_int = packed.forward_packed(&x, PackedExec::Integer)?;
    let max_err = y_fake
        .as_slice()
        .iter()
        .zip(y_int.as_slice())
        .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
    println!(
        "packed artifact: {} payload bytes; fake-quant vs packed integer max |Δ|: {max_err:.2e}",
        artifact.payload_bytes()
    );

    // Silicon budget of the deployed assignment.
    let _ = deployed.forward(&x, Mode::Eval)?; // populate MAC counts
    let profiles = layer_profiles(&mut deployed);
    let size = model_size(&profiles);
    let inf = inference_report(&MacEnergyModel::node_32nm(), &profiles);
    println!(
        "deployed: {:.2}x weight compression, {} MACs/inference, {:.3} nJ/inference, {:.4} mm2 MAC area",
        size.compression, inf.total_macs, inf.energy_nj, inf.mac_area_mm2
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
