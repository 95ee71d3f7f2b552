//! **Table II** — cross-framework comparison: quantized top-1, model
//! compression, and degradation from each framework's own baseline, for
//! three architecture/dataset pairs.
//!
//! Measured rows: DoReFa 3/3, PACT 4/4, PACT-SAWB 2/2 (all one-shot with
//! fp first/last layers, as those papers do), the HAWQ-style Hessian-trace
//! proxy (mixed precision), and PACT+CCQ (mixed precision, first/last
//! quantized too). Literature rows from the paper are echoed in the header
//! for context; the claim reproduced is the *ordering*: CCQ attains the
//! least degradation at comparable compression.
//!
//! Usage: `cargo run --release -p ccq-bench --bin table2`

// Tables and CSVs go to stdout by design.
#![allow(clippy::print_stdout)]
// ccq-lint: allow-file(panic-surface) — bench harness: aborting on setup failure is the intended UX

use ccq::baselines::{hawq_assign, one_shot_quantize, HawqConfig, OneShotConfig};
use ccq::{CcqConfig, CcqRunner, RecoveryMode};
use ccq_bench::{build_workload, fmt_pct, fmt_ratio, run_on_images, Scale, SummarySink};
use ccq_models::ModelKind;
use ccq_quant::{BitLadder, BitWidth, PolicyKind};

struct Arch {
    kind: ModelKind,
    classes: usize,
    label: &'static str,
    /// CCQ stops at roughly the paper's compression point for the arch.
    ccq_target_compression: f64,
}

fn main() {
    let scale = Scale::from_env();
    println!("# Table II: framework comparison (top-1 %, compression, degradation)");
    println!("# paper rows for context:");
    println!("#   ResNet20/CIFAR10 : DoReFa 1.9 | PACT 0.3 | SAWB 1.15 | LQ-Nets 0.5 | HAWQ 0.15 | CCQ 0.06 (10.1x)");
    println!("#   ResNet18/ImageNet: DoReFa 7.6 | PACT 5.8 | SAWB 3.4 | LQ-Nets 5.4 | QIL 4.8 | CCQ 2.6 (9.75x)");
    println!("#   ResNet50/ImageNet: DoReFa 9.8 | PACT 4.7 | SAWB 2.7 | LQ-Nets 2.4 | HAWQ 1.91 | CCQ 1.45 (8.47x)");
    println!("# scale: {scale:?}");
    println!("arch,framework,bits,baseline_top1,quantized_top1,compression,degradation_pts");

    let archs = [
        Arch {
            kind: ModelKind::Resnet20,
            classes: 10,
            label: "ResNet20/Synth10",
            ccq_target_compression: 10.0,
        },
        Arch {
            kind: ModelKind::Resnet18,
            classes: 20,
            label: "ResNet18/Synth20",
            ccq_target_compression: 9.75,
        },
        Arch {
            kind: ModelKind::Resnet50,
            classes: 10,
            label: "ResNet50/Synth10",
            ccq_target_compression: 8.5,
        },
    ];

    for arch in &archs {
        // One-shot rows, each with the policy its paper uses.
        for (policy, bits) in [
            (PolicyKind::Dorefa, 3u32),
            (PolicyKind::Pact, 4),
            (PolicyKind::Sawb, 2),
        ] {
            let workload = build_workload(scale, arch.kind, arch.classes, policy, 13);
            let mut net = workload.net;
            let layers = net.quant_layer_count();
            let train_b = workload.train.batches(32);
            let val_b = workload.val.batches(32);
            let cfg = OneShotConfig {
                seed: 2,
                ..OneShotConfig::fp_mid_fp(layers, BitWidth::of(bits), scale.fine_tune_epochs())
            };
            let rep = one_shot_quantize(&mut net, &cfg, &train_b, &val_b).expect("one-shot failed");
            println!(
                "{},{policy},{bits}/{bits},{},{},{},{:.2}",
                arch.label,
                fmt_pct(rep.baseline_accuracy),
                fmt_pct(rep.final_accuracy),
                fmt_ratio(rep.compression),
                100.0 * rep.degradation()
            );
        }

        // HAWQ-proxy mixed precision.
        {
            let workload = build_workload(scale, arch.kind, arch.classes, PolicyKind::Pact, 13);
            let mut net = workload.net;
            let train_b = workload.train.batches(32);
            let val_b = workload.val.batches(32);
            let cfg = HawqConfig {
                target_compression: arch.ccq_target_compression,
                fine_tune_epochs: scale.fine_tune_epochs(),
                seed: 3,
                ..HawqConfig::default()
            };
            let rep = hawq_assign(&mut net, &cfg, &train_b, &val_b).expect("hawq failed");
            println!(
                "{},HAWQ-proxy,MP,{},{},{},{:.2}",
                arch.label,
                fmt_pct(rep.baseline_accuracy),
                fmt_pct(rep.final_accuracy),
                fmt_ratio(rep.compression),
                100.0 * rep.degradation()
            );
        }

        // PACT+CCQ mixed precision (first/last quantized too).
        {
            let workload = build_workload(scale, arch.kind, arch.classes, PolicyKind::Pact, 13);
            let mut net = workload.net;
            let cfg = CcqConfig {
                ladder: BitLadder::paper_default(),
                target_compression: Some(arch.ccq_target_compression),
                recovery: RecoveryMode::Adaptive {
                    tolerance: 0.01,
                    max_epochs: scale.fine_tune_epochs().max(2) / 2,
                },
                seed: 4,
                probe_rounds: 1,
                probe_val_batches: 1,
                ..CcqConfig::default()
            };
            let mut runner = CcqRunner::new(cfg);
            let mut summary = SummarySink::new();
            let (train, val) = (&workload.train, &workload.val);
            run_on_images(&mut runner, &mut net, train, val, &mut summary).expect("ccq failed");
            println!(
                "{},PACT+CCQ,MP,{},{},{},{:.2}",
                arch.label,
                fmt_pct(summary.baseline_accuracy),
                fmt_pct(summary.final_accuracy),
                fmt_ratio(summary.final_compression),
                100.0 * summary.degradation()
            );
            eprintln!("# {} CCQ bit pattern: {}", arch.label, summary.bit_pattern);
        }
    }
}
