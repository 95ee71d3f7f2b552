//! **Fig. 2** — CCQ learning curve: valleys where competition quantizes a
//! layer, peaks where collaboration recovers.
//!
//! Emits the per-epoch validation-accuracy trace as CSV, streamed out of
//! the descent's event stream (a [`TraceBuffer`] plus a valley counter over
//! [`DescentEvent::StepCompleted`]). Paper claim reproduced: the curve is
//! a sawtooth — every quantization step dents accuracy and the subsequent
//! fine-tuning climbs back.
//!
//! Usage: `cargo run --release -p ccq-bench --bin fig2_curve`

// Tables and CSVs go to stdout by design.
#![allow(clippy::print_stdout)]
// ccq-lint: allow-file(panic-surface) — bench harness: aborting on setup failure is the intended UX

use ccq::{
    CcqConfig, CcqRunner, DescentEvent, EventSink, FanoutSink, MetricsSink, RecoveryMode,
    TraceBuffer,
};
use ccq_bench::{build_workload, run_on_images, Scale};
use ccq_models::ModelKind;
use ccq_quant::{BitLadder, PolicyKind};

/// The figure's consumer: the learning-curve CSV plus the sawtooth
/// sanity counts, all folded from events as the run progresses.
#[derive(Default)]
struct CurveSink {
    csv: TraceBuffer,
    valleys: usize,
    recovered: usize,
}

impl EventSink for CurveSink {
    fn on_event(&mut self, ev: &DescentEvent) {
        self.csv.on_event(ev);
        if let DescentEvent::StepCompleted { record } = ev {
            if record.accuracy_after_quant < record.accuracy_before {
                self.valleys += 1;
                if record.accuracy_after_recovery > record.accuracy_after_quant {
                    self.recovered += 1;
                }
            }
        }
    }
}

fn main() {
    let scale = Scale::from_env();
    let workload = build_workload(scale, ModelKind::Resnet20, 10, PolicyKind::Pact, 42);
    let mut net = workload.net;
    let cfg = CcqConfig {
        ladder: BitLadder::new(&[8, 6, 4, 3, 2]).expect("static ladder"),
        target_compression: Some(10.0),
        recovery: RecoveryMode::Adaptive {
            tolerance: 0.015,
            max_epochs: scale.fine_tune_epochs().max(2) / 2,
        },
        seed: 6,
        probe_rounds: 1,
        probe_val_batches: 1,
        ..CcqConfig::default()
    };
    let mut runner = CcqRunner::new(cfg);
    let mut curve = CurveSink::default();
    // Fan the stream into a wall-clock metrics sink too: the run's
    // exposition (phase timings, ξ distributions, decision counters)
    // goes to stderr alongside the sawtooth counts.
    let mut metrics = MetricsSink::wall();
    let rep = {
        let mut fan = FanoutSink::new().with(&mut curve).with(&mut metrics);
        run_on_images(
            &mut runner,
            &mut net,
            &workload.train,
            &workload.val,
            &mut fan,
        )
        .expect("ccq failed")
    };

    println!("# Fig. 2: CCQ learning curve (valleys = quantization, peaks = recovery)");
    println!("# scale: {scale:?}; final: {rep}");
    print!("{}", curve.csv.trace_csv());
    eprintln!(
        "# {} accuracy valleys, {} recovered by collaboration",
        curve.valleys, curve.recovered
    );
    eprint!("{}", metrics.render_text());
}
