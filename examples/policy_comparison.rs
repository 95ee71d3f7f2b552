//! Compare quantization policies as *policies* — the property CCQ is
//! agnostic over.
//!
//! Quantizes the same trained network one-shot with every policy at
//! several bit widths and reports weight quantization error (SQNR) and
//! validation accuracy, showing why the paper picks PACT as its default
//! (learned clipping adapts to bit-width changes).
//!
//! ```sh
//! cargo run --release --example policy_comparison
//! ```

// Tables and CSVs go to stdout by design.
#![allow(clippy::print_stdout)]

use ccq_repro::data::{gaussian_blobs, BlobsConfig};
use ccq_repro::models::mlp;
use ccq_repro::nn::checkpoint::Checkpoint;
use ccq_repro::nn::train::{evaluate, train_epoch};
use ccq_repro::nn::Sgd;
use ccq_repro::quant::{quantization_sqnr_db, BitWidth, LayerQuant, PolicyKind, QuantSpec};
use ccq_repro::tensor::{rng, Init};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Part 1: pure kernel comparison — SQNR of each policy's weight
    // quantizer on a Gaussian weight tensor.
    let w = Init::Normal {
        mean: 0.0,
        std: 0.5,
    }
    .sample(&[4096], &mut rng(0));
    println!("weight-quantizer SQNR (dB) on N(0, 0.5) weights:");
    println!("{:<14} {:>6} {:>6} {:>6}", "policy", "2b", "4b", "8b");
    for policy in PolicyKind::ALL {
        let mut row = format!("{policy:<14}");
        for bits in [2u32, 4, 8] {
            let lq = LayerQuant::new(QuantSpec::new(policy, BitWidth::of(bits), BitWidth::FP32));
            let q = lq.quantize_weights(&w);
            row.push_str(&format!(" {:>6.1}", quantization_sqnr_db(&w, &q)));
        }
        println!("{row}");
    }

    // Part 2: end-to-end — accuracy of the same trained MLP under each
    // policy at 4 and 2 bits (weights and activations), no fine-tuning.
    let data = gaussian_blobs(&BlobsConfig {
        classes: 4,
        dim: 8,
        samples_per_class: 64,
        std: 0.4,
        seed: 7,
    });
    let (train, val) = data.split_at(192);
    let (train_b, val_b) = (train.batches(16), val.batches(32));
    let mut source = mlp(&[8, 24, 4], PolicyKind::Pact, 3);
    let mut opt = Sgd::new(0.05).momentum(0.9);
    let mut r = rng(4);
    for _ in 0..20 {
        train_epoch(&mut source, &train_b, &mut opt, &mut r)?;
    }
    let state = Checkpoint::capture(&mut source);

    println!("\npost-training accuracy of one trained MLP, per policy (no fine-tuning):");
    println!(
        "{:<14} {:>8} {:>8} {:>8}",
        "policy", "fp32", "4b/4b", "2b/2b"
    );
    for policy in PolicyKind::ALL {
        let mut row = format!("{policy:<14}");
        for bits in [32u32, 4, 2] {
            // A structurally identical network carrying the same trained
            // weights, with this policy installed.
            let mut target = mlp(&[8, 24, 4], policy, 3);
            state.apply(&mut target)?;
            let width = if bits == 32 {
                BitWidth::FP32
            } else {
                BitWidth::of(bits)
            };
            target.set_all_quant_specs(QuantSpec::new(policy, width, width));
            let acc = evaluate(&mut target, &val_b)?.accuracy;
            row.push_str(&format!(" {:>7.1}%", 100.0 * acc));
        }
        println!("{row}");
    }
    println!("\n(PACT's learned clipping keeps accuracy at low bits — the reason");
    println!(" the paper uses it as CCQ's default policy.)");
    Ok(())
}
