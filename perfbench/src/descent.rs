//! The descent probe: one Hedge descent of a ResNet20-style net (width 4)
//! over SynthCIFAR 16×16, single-stepped through `CcqRunner::engine` and
//! `DescentEngine::step()` with a span per phase.
//!
//! The descent uses one-epoch manual recovery, the 8/4/2 ladder, a 6×
//! compression target under a 16-step cap, and no autosave. Set-up is
//! the fp32 pre-train. Every traced run runs this probe for the `core`,
//! `nn` training and f32 MAC figures. The descent runs twice from the
//! same weights: same seed ⇒ same descent, so the second run must
//! reproduce the first's step records and learning curve digest for
//! digest (the bit assignment and the accuracy trajectory).

use crate::modules::{self, CoreSink, CoreTrace, NnProbe};
use crate::trace::Tracer;
use ccq::{CcqConfig, NullSink, RecoveryMode};
use ccq_data::{synth_cifar, SynthCifarConfig};
use ccq_models::{ModelConfig, ModelKind};
use ccq_nn::train::{train_epoch, Batch};
use ccq_nn::{Network, Sgd};
use ccq_quant::{BitLadder, PolicyKind};
use ccq_tensor::rng;

/// Classes in the SynthCIFAR task.
pub const CLASSES: usize = 4;
/// Base channel width of the ResNet20-style net.
pub const WIDTH: usize = 4;
/// Image side in pixels.
pub const IMAGE: usize = 16;
/// Training samples per class.
pub const TRAIN_PER_CLASS: usize = 12;
/// Validation samples per class.
pub const VAL_PER_CLASS: usize = 16;
/// Minibatch size for training, validation and probes.
pub const BATCH: usize = 16;
/// fp32 pre-training epochs (the set-up).
pub const PRETRAIN_EPOCHS: usize = 12;
/// Weight compression at which the descent stops.
pub const TARGET_COMPRESSION: f64 = 6.0;
/// Safety cap on quantization steps.
pub const STEP_CAP: usize = 16;

/// A pre-trained net, its data, and the descent configuration.
pub struct Setup {
    /// The fp32 net the descent starts from.
    pub base: Network,
    /// Training batches.
    pub train: Vec<Batch>,
    /// Validation batches (the first one is the probe set).
    pub val: Vec<Batch>,
    /// The descent configuration.
    pub config: CcqConfig,
}

/// Generates the data from `seed`, builds the net and pre-trains it.
///
/// # Errors
///
/// A training error, as text.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let data = synth_cifar(&SynthCifarConfig {
        classes: CLASSES,
        samples_per_class: TRAIN_PER_CLASS + VAL_PER_CLASS,
        image_size: IMAGE,
        noise_std: 0.1,
        jitter: 0.1,
        monochrome: true,
        seed,
    });
    let (train, val) = data.split_at(CLASSES * TRAIN_PER_CLASS);
    let (train, val) = (train.batches(BATCH), val.batches(BATCH));
    let mut base = ModelKind::Resnet20.build(&ModelConfig {
        classes: CLASSES,
        width: WIDTH,
        policy: PolicyKind::Pact,
        seed,
    });
    let mut opt = Sgd::new(0.05).momentum(0.9).weight_decay(5e-4);
    let mut r = rng(seed ^ 0x5eed);
    for epoch in 0..PRETRAIN_EPOCHS {
        if epoch == PRETRAIN_EPOCHS * 2 / 3 {
            opt.set_lr(0.01);
        }
        train_epoch(&mut base, &train, &mut opt, &mut r).map_err(|e| e.to_string())?;
    }
    let config = CcqConfig {
        ladder: BitLadder::new(&[8, 4, 2]).map_err(|e| e.to_string())?,
        probe_rounds: 1,
        probe_val_batches: 1,
        recovery: RecoveryMode::Manual { epochs: 1 },
        max_steps: STEP_CAP,
        target_compression: Some(TARGET_COMPRESSION),
        batch_size: BATCH,
        seed,
        autosave: None,
        ..CcqConfig::default()
    };
    Ok(Setup {
        base,
        train,
        val,
        config,
    })
}

/// What the descent probe measured.
pub struct DescentProbe {
    /// Per-phase times and counts of the traced descent.
    pub core: CoreTrace,
    /// `train_epoch` / `evaluate` on the final net and the descent's data.
    pub nn: NnProbe,
    /// Segments (step 0 and each quantization step) of the descent.
    pub segments: u64,
    /// Segments the untraced repeat reproduced digest for digest (a
    /// mismatch fails every later segment).
    pub reproduced: u64,
}

/// Pre-trains, runs the descent traced into `tracer`, repeats it
/// untraced, and times the `nn` training calls on the final net.
///
/// # Errors
///
/// A training or engine error, as text.
pub fn probe(seed: u64, tracer: &mut Tracer) -> Result<DescentProbe, String> {
    let s = setup(seed)?;
    let mut sink = CoreSink::default();
    let mut net = s.base.clone();
    let mut digests = Vec::new();
    let end = modules::drive_descent(
        &s.config,
        &mut net,
        &s.train,
        &s.val,
        &mut sink,
        tracer,
        &mut |d| digests.push(d),
    )?;
    let mut repeat = Vec::new();
    modules::drive_descent(
        &s.config,
        &mut s.base.clone(),
        &s.train,
        &s.val,
        &mut NullSink,
        &mut Tracer::new(false),
        &mut |d| repeat.push(d),
    )?;
    let reproduced = digests
        .iter()
        .zip(&repeat)
        .take_while(|(a, b)| a == b)
        .count() as u64;

    let mut core = CoreTrace::new(tracer, &sink, &end.cache);
    let samples = |b: &[Batch]| b.iter().map(Batch::len).sum::<usize>();
    let probe_set = &s.val[..s.config.probe_val_batches.min(s.val.len())];
    core.f32_macs_per_step = modules::f32_macs_per_step(
        modules::forward_macs(&mut net.clone(), &s.val[0].images)?,
        core.recovery_epochs_per_step,
        core.probes_per_step,
        core.forward_fraction,
        (samples(&s.train), samples(&s.val), samples(probe_set)),
    );
    Ok(DescentProbe {
        core,
        nn: modules::nn_probe(&net, &s.train, &s.val, crate::PROBE_REPS)?,
        segments: digests.len() as u64,
        reproduced,
    })
}
