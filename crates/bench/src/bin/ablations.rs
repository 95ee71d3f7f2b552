//! Ablations over CCQ's design choices (DESIGN.md §5): Hedge rate γ,
//! competition rounds `U`, and bit-ladder granularity.
//!
//! Usage: `cargo run --release -p ccq-bench --bin ablations [-- --only sec1,sec2]`
//! where sections are `gamma`, `rounds`, `regime`, `granularity`, `ladder`.

// Tables and CSVs go to stdout by design.
#![allow(clippy::print_stdout)]
// ccq-lint: allow-file(panic-surface) — bench harness: aborting on setup failure is the intended UX

use ccq::{
    CcqConfig, CcqRunner, ExpertGranularity, LambdaSchedule, NullSink, ProbeRegime, RecoveryMode,
};
use ccq_bench::{build_workload, fmt_pct, fmt_ratio, run_on_images, Scale};
use ccq_models::ModelKind;
use ccq_quant::{BitLadder, PolicyKind};

fn run(cfg: CcqConfig, scale: Scale) -> (f32, f64, usize) {
    let workload = build_workload(scale, ModelKind::Resnet20, 10, PolicyKind::Pact, 77);
    let mut net = workload.net;
    let rep = run_on_images(
        &mut CcqRunner::new(cfg),
        &mut net,
        &workload.train,
        &workload.val,
        &mut NullSink,
    )
    .expect("ccq");
    let total_epochs: usize = rep.steps.iter().map(|s| s.recovery_epochs).sum();
    (rep.final_accuracy, rep.final_compression, total_epochs)
}

fn base_cfg(scale: Scale) -> CcqConfig {
    CcqConfig {
        ladder: BitLadder::new(&[8, 6, 4, 3]).expect("ladder"),
        target_compression: Some(8.0),
        lambda: LambdaSchedule::constant(0.5),
        recovery: RecoveryMode::Adaptive {
            tolerance: 0.015,
            max_epochs: scale.fine_tune_epochs().max(2) / 2,
        },
        seed: 8,
        probe_rounds: 1,
        probe_val_batches: 1,
        ..CcqConfig::default()
    }
}

fn main() {
    let scale = Scale::from_env();
    let args: Vec<String> = std::env::args().collect();
    let only: Option<Vec<String>> = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.split(',').map(str::to_string).collect());
    let wants = |section: &str| {
        only.as_ref()
            .map(|o| o.iter().any(|s| s == section))
            .unwrap_or(true)
    };
    println!("# CCQ ablations (ResNet20 / SynthCIFAR, 8x target)");
    println!("# scale: {scale:?}");
    println!("ablation,value,final_top1,compression,recovery_epochs");

    // γ: how aggressively the competition trusts a single probe.
    for gamma in [0.1f32, 0.5, 2.0].into_iter().filter(|_| wants("gamma")) {
        let cfg = CcqConfig {
            gamma,
            ..base_cfg(scale)
        };
        let (acc, comp, epochs) = run(cfg, scale);
        println!(
            "gamma,{gamma},{},{},{epochs}",
            fmt_pct(acc),
            fmt_ratio(comp)
        );
    }

    // U: competition rounds (probe budget vs selection quality).
    for rounds in [1usize, 2, 4].into_iter().filter(|_| wants("rounds")) {
        let cfg = CcqConfig {
            probe_rounds: rounds,
            ..base_cfg(scale)
        };
        let (acc, comp, epochs) = run(cfg, scale);
        println!(
            "probe_rounds,{rounds},{},{},{epochs}",
            fmt_pct(acc),
            fmt_ratio(comp)
        );
    }

    // Probe regime: full information vs Algorithm 1's sampled updates.
    for (name, regime) in [
        ("full_information", ProbeRegime::FullInformation),
        ("sampled", ProbeRegime::Sampled),
    ]
    .into_iter()
    .filter(|_| wants("regime"))
    {
        let cfg = CcqConfig {
            probe_regime: regime,
            // Match probe budgets: sampled gets one probe per active layer
            // per "round" equivalent (0 = 2x active for sampled).
            probe_rounds: 0,
            ..base_cfg(scale)
        };
        let (acc, comp, epochs) = run(cfg, scale);
        println!(
            "probe_regime,{name},{},{},{epochs}",
            fmt_pct(acc),
            fmt_ratio(comp)
        );
    }

    // Expert granularity: whole layers vs split weight/act experts.
    for (name, granularity) in [
        ("layer", ExpertGranularity::Layer),
        ("weight_act", ExpertGranularity::WeightAct),
    ]
    .into_iter()
    .filter(|_| wants("granularity"))
    {
        let cfg = CcqConfig {
            granularity,
            ..base_cfg(scale)
        };
        let (acc, comp, epochs) = run(cfg, scale);
        println!(
            "expert_granularity,{name},{},{},{epochs}",
            fmt_pct(acc),
            fmt_ratio(comp)
        );
    }

    // Ladder granularity: gradual descent vs a direct plunge.
    for (name, rungs) in [
        ("8-6-4-3", vec![8u32, 6, 4, 3]),
        ("8-4-3", vec![8, 4, 3]),
        ("8-3", vec![8, 3]),
        ("3", vec![3]),
    ]
    .into_iter()
    .filter(|_| wants("ladder"))
    {
        let cfg = CcqConfig {
            ladder: BitLadder::new(&rungs).expect("ladder"),
            ..base_cfg(scale)
        };
        let (acc, comp, epochs) = run(cfg, scale);
        println!(
            "ladder,{name},{},{},{epochs}",
            fmt_pct(acc),
            fmt_ratio(comp)
        );
    }
}
