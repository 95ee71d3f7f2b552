//! **Fig. 1** — accuracy vs the memory-aggressiveness parameter λ (Eq. 7).
//!
//! Sweeps the *average* λ from 0 (purely accuracy-driven) to 1 (purely
//! size-driven) and reports CCQ's final accuracy at a fixed compression
//! target. Paper claim reproduced: intermediate λ (≈ 0.6–0.7) is best;
//! λ → 1 sacrifices accuracy.
//!
//! Pass `--decay` to additionally compare constant λ against the paper's
//! linearly-decayed λ at the same average (the ablation DESIGN.md §5
//! calls out).
//!
//! Usage: `cargo run --release -p ccq-bench --bin fig1_lambda [-- --decay]`

// Tables and CSVs go to stdout by design.
#![allow(clippy::print_stdout)]
// ccq-lint: allow-file(panic-surface) — bench harness: aborting on setup failure is the intended UX

use ccq::{CcqConfig, CcqRunner, LambdaSchedule, NullSink, RecoveryMode};
use ccq_bench::{build_workload, fmt_pct, fmt_ratio, run_on_images, Scale};
use ccq_models::ModelKind;
use ccq_quant::{BitLadder, PolicyKind};

/// One CCQ run per (λ, seed); the deep 12x target pushes most layers to
/// 2–3 bits, the regime where the order of quantization matters.
fn run_one(lambda: LambdaSchedule, scale: Scale, seed: u64) -> (f32, f64, f32, usize, usize) {
    let workload = build_workload(scale, ModelKind::Resnet20, 10, PolicyKind::Pact, 21 + seed);
    let mut net = workload.net;
    let cfg = CcqConfig {
        ladder: BitLadder::new(&[8, 6, 4, 3, 2]).expect("static ladder"),
        lambda,
        target_compression: Some(10.0),
        recovery: RecoveryMode::Adaptive {
            tolerance: 0.015,
            max_epochs: scale.fine_tune_epochs().max(2) / 2,
        },
        seed: 5 + seed,
        probe_rounds: 1,
        probe_val_batches: 1,
        ..CcqConfig::default()
    };
    let mut runner = CcqRunner::new(cfg);
    let (train, val) = (&workload.train, &workload.val);
    let rep = run_on_images(&mut runner, &mut net, train, val, &mut NullSink).expect("ccq failed");
    let epochs: usize = rep.steps.iter().map(|s| s.recovery_epochs).sum();
    (
        rep.final_accuracy,
        rep.final_compression,
        workload.baseline_accuracy,
        rep.steps.len(),
        epochs,
    )
}

/// Mean over seeds.
fn run_avg(lambda: LambdaSchedule, scale: Scale, seeds: u64) -> (f32, f64, f32, usize, usize) {
    let mut acc = 0.0f32;
    let mut comp = 0.0f64;
    let mut base = 0.0f32;
    let mut steps = 0usize;
    let mut epochs = 0usize;
    for s in 0..seeds {
        let (a, c, b, st, ep) = run_one(lambda, scale, s);
        acc += a;
        comp += c;
        base += b;
        steps += st;
        epochs += ep;
    }
    let n = seeds.max(1) as f32;
    (
        acc / n,
        comp / f64::from(seeds.max(1) as u32),
        base / n,
        steps / seeds.max(1) as usize,
        epochs / seeds.max(1) as usize,
    )
}

fn main() {
    let scale = Scale::from_env();
    let decay_mode = std::env::args().any(|a| a == "--decay");
    println!("# Fig. 1: accuracy and schedule cost vs average lambda (ResNet20 / SynthCIFAR, 10x target)");
    println!("# paper: best accuracy in the lambda ~0.6-0.7 vicinity");
    println!("# scale: {scale:?}");
    println!(
        "avg_lambda,schedule,final_top1,compression,baseline_top1,quant_steps,recovery_epochs"
    );

    let seeds = 1; // single seed keeps the sweep CPU-friendly; bump for tighter error bars
    for avg in [0.0f32, 0.5, 0.65, 1.0] {
        let (acc, comp, base, steps, epochs) = run_avg(LambdaSchedule::constant(avg), scale, seeds);
        println!(
            "{avg:.2},constant,{},{},{},{steps},{epochs}",
            fmt_pct(acc),
            fmt_ratio(comp),
            fmt_pct(base)
        );
    }
    if decay_mode {
        // Linear decay with the same averages (start = avg + 0.3 clamp,
        // end = avg − 0.3 clamp): the paper's recommended schedule.
        for avg in [0.25f32, 0.5, 0.65] {
            let start = (avg + 0.3).min(1.0);
            let end = (2.0 * avg - start).max(0.0);
            let (acc, comp, base, steps, epochs) =
                run_avg(LambdaSchedule::linear(start, end, 20), scale, 1);
            println!(
                "{avg:.2},linear_decay,{},{},{},{steps},{epochs}",
                fmt_pct(acc),
                fmt_ratio(comp),
                fmt_pct(base)
            );
        }
    }
}
