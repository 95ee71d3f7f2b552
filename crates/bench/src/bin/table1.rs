//! **Table I** — one-shot vs gradual (CCQ) quantization to the fixed
//! `fp-3b-fp` pattern, for DoReFa / WRPN / PACT on ResNet20/SynthCIFAR.
//!
//! Paper claim reproduced: reaching the *same* bit configuration gradually
//! with CCQ's accuracy-driven competition beats quantizing one-shot, for
//! every policy.
//!
//! Usage: `cargo run --release -p ccq-bench --bin table1`
//! (set `CCQ_SCALE=smoke|small|full` to scale the workload).

// Tables and CSVs go to stdout by design.
#![allow(clippy::print_stdout)]
// ccq-lint: allow-file(panic-surface) — bench harness: aborting on setup failure is the intended UX

use ccq::baselines::{one_shot_quantize, OneShotConfig};
use ccq::{CcqConfig, CcqRunner, LambdaSchedule, RecoveryMode};
use ccq_bench::{build_workload, fmt_pct, run_on_images, Scale, SummarySink};
use ccq_models::ModelKind;
use ccq_nn::checkpoint::Checkpoint;
use ccq_quant::{BitLadder, BitWidth, PolicyKind};

fn main() {
    let scale = Scale::from_env();
    println!("# Table I: one-shot vs gradual quantization to fp-3b-fp (ResNet20 / SynthCIFAR)");
    println!("# paper (CIFAR10): DoReFa 89.9 -> 91.8 | WRPN 87.9 -> 89.33 | PACT 91.1 -> 91.94");
    println!("# scale: {scale:?}");
    println!("policy,baseline_top1,one_shot_top1,gradual_ccq_top1,gradual_wins");

    for policy in [PolicyKind::Dorefa, PolicyKind::Wrpn, PolicyKind::Pact] {
        let workload = build_workload(scale, ModelKind::Resnet20, 10, policy, 7);
        let val_batches = workload.val.batches(32);
        let train_batches = workload.train.batches(32);
        let layers = {
            let mut net = ModelKind::Resnet20.build(&ccq_models::ModelConfig {
                classes: 10,
                width: scale.width(),
                policy,
                seed: 7,
            });
            net.quant_layer_count()
        };

        // (a) One-shot to fp-3b-fp, then fine-tune.
        let mut one_shot_net = workload.net;
        // Capture the full-precision net for the gradual arm before mutating.
        let snapshot = Checkpoint::capture(&mut one_shot_net);
        let cfg = OneShotConfig {
            seed: 1,
            ..OneShotConfig::fp_mid_fp(layers, BitWidth::of(3), scale.fine_tune_epochs())
        };
        let one_shot = one_shot_quantize(&mut one_shot_net, &cfg, &train_batches, &val_batches)
            .expect("one-shot run failed");

        // (b) Gradual: force CCQ to reach the same pattern.
        let mut gradual_net = one_shot_net;
        snapshot.apply(&mut gradual_net).expect("checkpoint apply");
        let mut targets = vec![BitWidth::of(3); layers];
        targets[0] = BitWidth::FP32;
        targets[layers - 1] = BitWidth::FP32;
        let ccq_cfg = CcqConfig {
            ladder: BitLadder::new(&[8, 4, 3]).expect("static ladder"),
            targets: Some(targets),
            lambda: LambdaSchedule::constant(0.3),
            recovery: RecoveryMode::Adaptive {
                tolerance: 0.01,
                max_epochs: scale.fine_tune_epochs().max(2) / 2,
            },
            seed: 1,
            probe_rounds: 1,
            probe_val_batches: 1,
            ..CcqConfig::default()
        };
        let mut runner = CcqRunner::new(ccq_cfg);
        let mut gradual = SummarySink::new();
        run_on_images(
            &mut runner,
            &mut gradual_net,
            &workload.train,
            &workload.val,
            &mut gradual,
        )
        .expect("ccq run failed");

        println!(
            "{policy},{},{},{},{}",
            fmt_pct(workload.baseline_accuracy),
            fmt_pct(one_shot.final_accuracy),
            fmt_pct(gradual.final_accuracy),
            gradual.final_accuracy >= one_shot.final_accuracy
        );
    }
}
