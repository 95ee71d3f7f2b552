//! Mixed-precision search on a ResNet: the paper's intro workload.
//!
//! Trains a ResNet20-style network on SynthCIFAR, lets CCQ learn a
//! per-layer bit assignment to a 10x compression target, and then analyses
//! the result with the hardware model: model size, per-layer power, and
//! the first/last-layer power story of Fig. 5.
//!
//! ```sh
//! cargo run --release --example mixed_precision_search
//! ```
//!
//! The search autosaves its run state every quantization step; an
//! interrupted (or crashed) search continues bit-for-bit from the last
//! step boundary:
//!
//! ```sh
//! cargo run --release --example mixed_precision_search -- \
//!     --resume mixed_precision_search.ccqruns
//! ```
//!
//! `--searcher <hedge|zero-bit|releq|one-shot>` swaps the compete-phase
//! strategy (artifact files pick up the searcher name so runs don't
//! clobber each other), and `--assert-done` exits nonzero unless the
//! search reached its compression target — the suite's searcher gate:
//!
//! ```sh
//! cargo run --release --example mixed_precision_search -- \
//!     --searcher releq --assert-done
//! ```
//!
//! Either way the search streams its event log — baseline, per-round
//! probe losses, quantize decisions, recovery epochs — as JSON lines to
//! `mixed_precision_search.events.jsonl` through a [`JsonlSink`], and
//! fans the same stream into a [`MetricsSink`] whose Prometheus-style
//! exposition lands in `mixed_precision_search.metrics.txt`. Replay the
//! JSONL later with `cargo run -p ccq-bench --bin ccq-report`.

// Tables and CSVs go to stdout by design.
#![allow(clippy::print_stdout)]

use ccq_repro::ccq::{
    layer_profiles, render_probe_cache_stats, CcqConfig, CcqRunner, FanoutSink, JsonlSink,
    MetricsSink, RecoveryMode, SearcherKind,
};
use ccq_repro::data::{synth_cifar, Augment, SynthCifarConfig};
use ccq_repro::hw::{model_size, network_power, MacEnergyModel};
use ccq_repro::models::{resnet20, ModelConfig};
use ccq_repro::nn::train::{evaluate, train_epoch};
use ccq_repro::nn::Sgd;
use ccq_repro::quant::PolicyKind;
use ccq_repro::tensor::rng;
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let mut resume: Option<PathBuf> = None;
    let mut searcher = SearcherKind::Hedge;
    let mut assert_done = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--resume" => {
                let path = args.next().ok_or("--resume needs a run-state path")?;
                resume = Some(PathBuf::from(path));
            }
            "--searcher" => {
                let kind = args.next().ok_or("--searcher needs a strategy name")?;
                searcher = SearcherKind::parse(&kind)?;
            }
            "--assert-done" => assert_done = true,
            other => return Err(format!("unknown argument: {other}").into()),
        }
    }
    // Artifacts are per-searcher so a gate can run every strategy in one
    // directory without the runs clobbering each other's autosaves.
    let stem = match searcher {
        SearcherKind::Hedge => "mixed_precision_search".to_string(),
        other => format!("mixed_precision_search.{other}"),
    };

    // A compact workload so the example finishes in about a minute.
    let data = synth_cifar(&SynthCifarConfig {
        classes: 10,
        samples_per_class: 40,
        image_size: 16,
        noise_std: 0.35,
        jitter: 0.4,
        monochrome: true,
        seed: 0,
    });
    let (train, val) = data.split_at(320);
    let mut net = resnet20(&ModelConfig {
        classes: 10,
        width: 4,
        policy: PolicyKind::Pact,
        seed: 0,
    });

    if resume.is_none() {
        // Pre-train the fp32 baseline. A resumed run skips this: the run
        // state restores the (already quantized) weights directly.
        let mut opt = Sgd::new(0.05).momentum(0.9).weight_decay(5e-4);
        let mut r = rng(1);
        let aug = Augment::standard();
        for _ in 0..24 {
            let batches = train.augmented_batches(32, &aug, &mut r);
            train_epoch(&mut net, &batches, &mut opt, &mut r)?;
        }
        let val_b = val.batches(32);
        let baseline = evaluate(&mut net, &val_b)?;
        println!("fp32 baseline: {:.1}% top-1", 100.0 * baseline.accuracy);
    }

    // CCQ search to a 10x compression target, with crash-safe autosaves
    // at every step boundary.
    let target_compression = 10.0;
    let cfg = CcqConfig {
        target_compression: Some(target_compression),
        recovery: RecoveryMode::Adaptive {
            tolerance: 0.02,
            max_epochs: 4,
        },
        seed: 2,
        searcher,
        autosave: Some(PathBuf::from(format!("{stem}.ccqruns"))),
        ..CcqConfig::default()
    };
    let mut runner = CcqRunner::new(cfg);

    // Stream the descent's event log as JSON lines; each line is one
    // structured event (probe round, quantize decision, recovery epoch…).
    // The same stream fans out into a metrics sink on the wall clock, so
    // the run also leaves a Prometheus-style exposition behind.
    let events_path = format!("{stem}.events.jsonl");
    let metrics_path = format!("{stem}.metrics.txt");
    let mut events = JsonlSink::new(std::io::BufWriter::new(std::fs::File::create(
        &events_path,
    )?));
    let mut metrics = MetricsSink::wall();
    let batch_size = runner.config().batch_size;
    let augment = Augment::standard();
    let mut provider = |r: &mut _| train.augmented_batches(batch_size, &augment, r);
    let val_b = val.batches(batch_size);
    let report = {
        let mut fan = FanoutSink::new().with(&mut events).with(&mut metrics);
        match &resume {
            Some(path) => {
                println!("resuming from {}", path.display());
                runner.resume(path, &mut net, &mut provider, &val_b, &mut fan)?
            }
            None => runner.run(&mut net, &mut provider, &val_b, &mut fan)?,
        }
    };
    if let Some(err) = events.io_error() {
        eprintln!("warning: event log truncated: {err}");
    }
    use std::io::Write as _;
    events.into_inner().flush()?;
    // Fold the run's probe-cache accounting into the exposition and
    // leave a sidecar behind so `ccq-report --probe-cache` can show how
    // much forward work incremental probe evaluation saved offline.
    let cache_path = format!("{stem}.probe_cache.json");
    let mut registry = metrics.into_registry();
    registry.record_probe_cache(runner.probe_cache_stats());
    std::fs::write(&metrics_path, registry.render_text())?;
    std::fs::write(
        &cache_path,
        render_probe_cache_stats(runner.probe_cache_stats()),
    )?;
    println!("{report}");
    println!("{}", runner.probe_cache_stats());
    println!("event log: {events_path}");
    println!("metrics exposition: {metrics_path}");
    println!("probe-cache sidecar: {cache_path}");

    // Hardware analysis of the learned assignment.
    let profiles = layer_profiles(&mut net);
    let size = model_size(&profiles);
    println!(
        "weights: {} params, {:.1} KiB quantized (vs {:.1} KiB fp32), {:.2}x",
        size.param_count,
        size.quantized_bits as f64 / 8192.0,
        size.fp32_bits as f64 / 8192.0,
        size.compression
    );
    let power = network_power(&MacEnergyModel::node_32nm(), &profiles, 1.0e4);
    println!(
        "iso-throughput power: {:.3} mW total ({:.3} mW in first+last layers, {:.0}% share)",
        power.total_mw,
        power.first_last_mw,
        100.0 * power.first_last_mw / power.total_mw.max(1e-12)
    );
    let mut top: Vec<_> = power.layers.iter().collect();
    top.sort_by(|a, b| b.power_mw.total_cmp(&a.power_mw));
    println!("hottest layers:");
    for l in top.iter().take(3) {
        println!(
            "  {:<22} {:.4} mW ({} MACs/inference)",
            l.label, l.power_mw, l.macs
        );
    }

    // `--assert-done` turns the run into a gate: exit nonzero unless the
    // search actually reached its compression target (mirrors ccq-serve's
    // `status --assert-done` contract).
    if assert_done && report.final_compression < target_compression {
        return Err(format!(
            "searcher {searcher} stopped at {:.2}x, short of the {target_compression:.0}x target",
            report.final_compression
        )
        .into());
    }
    Ok(())
}
