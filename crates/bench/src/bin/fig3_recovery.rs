//! **Fig. 3** — manual vs adaptive recovery.
//!
//! Runs the same CCQ schedule twice: once with a fixed per-step epoch
//! budget (manual) and once threshold-driven (adaptive). Paper claim
//! reproduced: a predefined budget both under-recovers on hard steps and
//! wastes epochs on easy ones, while adaptive recovery tracks the
//! threshold with a *variable* number of epochs per step.
//!
//! Usage: `cargo run --release -p ccq-bench --bin fig3_recovery`

// Tables and CSVs go to stdout by design.
#![allow(clippy::print_stdout)]
// ccq-lint: allow-file(panic-surface) — bench harness: aborting on setup failure is the intended UX

use ccq::{CcqConfig, CcqReport, CcqRunner, NullSink, RecoveryMode};
use ccq_bench::{build_workload, fmt_pct, run_on_images, Scale};
use ccq_models::ModelKind;
use ccq_quant::{BitLadder, PolicyKind};

fn run(mode: RecoveryMode, scale: Scale) -> CcqReport {
    let workload = build_workload(scale, ModelKind::Resnet20, 10, PolicyKind::Pact, 33);
    let mut net = workload.net;
    let cfg = CcqConfig {
        ladder: BitLadder::new(&[8, 6, 4, 3]).expect("static ladder"),
        target_compression: Some(9.0),
        recovery: mode,
        seed: 7,
        probe_rounds: 1,
        probe_val_batches: 1,
        ..CcqConfig::default()
    };
    run_on_images(
        &mut CcqRunner::new(cfg),
        &mut net,
        &workload.train,
        &workload.val,
        &mut NullSink,
    )
    .expect("ccq failed")
}

fn main() {
    let scale = Scale::from_env();
    let budget = (scale.fine_tune_epochs() / 4).max(1);
    let manual = run(RecoveryMode::Manual { epochs: budget }, scale);
    let adaptive = run(
        RecoveryMode::Adaptive {
            tolerance: 0.015,
            max_epochs: scale.fine_tune_epochs(),
        },
        scale,
    );

    println!("# Fig. 3: manual (S_t = {budget}) vs adaptive recovery (ResNet20 / SynthCIFAR)");
    println!("# scale: {scale:?}");
    println!("mode,step,layer,acc_valley,acc_recovered,epochs_used");
    for (mode, rep) in [("manual", &manual), ("adaptive", &adaptive)] {
        for s in &rep.steps {
            println!(
                "{mode},{},{},{},{},{}",
                s.step,
                s.label,
                fmt_pct(s.accuracy_after_quant),
                fmt_pct(s.accuracy_after_recovery),
                s.recovery_epochs
            );
        }
    }
    let manual_epochs: usize = manual.steps.iter().map(|s| s.recovery_epochs).sum();
    let adaptive_epochs: usize = adaptive.steps.iter().map(|s| s.recovery_epochs).sum();
    let adaptive_spread = {
        let min = adaptive
            .steps
            .iter()
            .map(|s| s.recovery_epochs)
            .min()
            .unwrap_or(0);
        let max = adaptive
            .steps
            .iter()
            .map(|s| s.recovery_epochs)
            .max()
            .unwrap_or(0);
        (min, max)
    };
    eprintln!(
        "# manual: final {} in {manual_epochs} recovery epochs (fixed {budget}/step)",
        fmt_pct(manual.final_accuracy)
    );
    eprintln!(
        "# adaptive: final {} in {adaptive_epochs} recovery epochs (per-step range {}..{})",
        fmt_pct(adaptive.final_accuracy),
        adaptive_spread.0,
        adaptive_spread.1
    );
}
