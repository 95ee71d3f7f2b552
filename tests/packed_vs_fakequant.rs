//! Differential deployment harness: packed execution ≡ fake-quant.
//!
//! For each of the three seed ResNet workloads, every searcher drives a
//! small CCQ descent to a final mixed-precision checkpoint; that
//! checkpoint is packed into a `CCQPACK` artifact, byte round-tripped,
//! and instantiated on a fresh network. The deployed network must then
//! agree with the fake-quant original:
//!
//! - **dequant execution** reproduces the fake-quant `Eval` forward
//!   bit-exactly — packing stores the exact grid codes and the decoding
//!   grid, so dequantization lands on the identical `f32` values;
//! - **integer execution** stays within [`INT_BOUND`]: `i8×i8→i32`
//!   accumulation with one `f32` rescale per layer only differs by
//!   accumulation rounding, but activation grids are dynamic (max-abs
//!   of the incoming batch), so a rounding-boundary input can flip one
//!   activation code and the flip compounds through depth.

use ccq_repro::ccq::{CcqConfig, CcqRunner, NullSink, RecoveryMode, SearcherKind};
use ccq_repro::data::{synth_cifar, SynthCifarConfig};
use ccq_repro::infer::{arch, PackedModel};
use ccq_repro::models::{ModelConfig, ModelKind};
use ccq_repro::nn::checkpoint::Checkpoint;
use ccq_repro::nn::train::train_epoch;
use ccq_repro::nn::{Mode, PackedExec, Sgd};
use ccq_repro::quant::{BitLadder, PolicyKind};
use ccq_repro::tensor::{rng, Init, Rng64};

/// Pinned integer-execution agreement bound (max abs logit deviation).
/// Observed worst case across the three workloads and four searchers is
/// well under 5e-2; `bench_perf --smoke` pins the same bound.
const INT_BOUND: f32 = 1e-1;

const SEARCHERS: [SearcherKind; 4] = [
    SearcherKind::Hedge,
    SearcherKind::ZeroBit,
    SearcherKind::ReleqRl,
    SearcherKind::OneShot,
];

/// Runs every searcher to a final checkpoint on one workload and checks
/// the packed artifact against the fake-quant network.
fn packed_matches_fake_quant(kind: ModelKind, family: &str) {
    let data = synth_cifar(&SynthCifarConfig {
        classes: 4,
        samples_per_class: 8,
        image_size: 16,
        noise_std: 0.15,
        jitter: 0.2,
        monochrome: false,
        seed: 21,
    });
    let (train, val) = data.split_at(24);
    let (train_b, val_b) = (train.batches(8), val.batches(8));
    let cfg = ModelConfig {
        classes: 4,
        width: 2,
        policy: PolicyKind::MaxAbs,
        seed: 33,
    };
    let arch = arch::model_arch(family, cfg.classes, cfg.width);
    let mut x_rng = rng(55);
    let x = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[2, 3, 16, 16], &mut x_rng);

    for searcher in SEARCHERS {
        let mut net = kind.build(&cfg);
        let mut opt = Sgd::new(0.05).momentum(0.9);
        let mut r = rng(61);
        train_epoch(&mut net, &train_b, &mut opt, &mut r).expect("pretraining");
        let ccq_cfg = CcqConfig {
            ladder: BitLadder::new(&[8, 4]).unwrap(),
            recovery: RecoveryMode::Manual { epochs: 1 },
            probe_val_batches: 1,
            max_steps: 2,
            searcher,
            seed: 77,
            ..CcqConfig::default()
        };
        let mut provider = |_: &mut Rng64| train_b.clone();
        CcqRunner::new(ccq_cfg)
            .run(&mut net, &mut provider, &val_b, &mut NullSink)
            .expect("ccq descent");

        let fake = net.forward(&x, Mode::Eval).expect("fake-quant forward");
        let ckpt = Checkpoint::capture(&mut net);
        let model = PackedModel::from_checkpoint(&ckpt, &arch).expect("pack checkpoint");
        let round_tripped =
            PackedModel::from_bytes(&model.to_bytes()).expect("artifact bytes round-trip");
        assert_eq!(
            round_tripped, model,
            "{family}/{searcher:?}: lossy serialization"
        );

        let mut deployed = round_tripped.instantiate().expect("instantiate");
        let dequant = deployed
            .forward_packed(&x, PackedExec::Dequant)
            .expect("dequant forward");
        assert_eq!(
            fake.as_slice(),
            dequant.as_slice(),
            "{family}/{searcher:?}: packed dequant must be bit-exact"
        );
        let integer = deployed
            .forward_packed(&x, PackedExec::Integer)
            .expect("integer forward");
        let worst = fake
            .as_slice()
            .iter()
            .zip(integer.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            worst <= INT_BOUND,
            "{family}/{searcher:?}: integer deviation {worst:e} exceeds {INT_BOUND:e}"
        );
    }
}

#[test]
fn resnet20_packed_matches_fake_quant_for_every_searcher() {
    packed_matches_fake_quant(ModelKind::Resnet20, "resnet20");
}

#[test]
fn resnet18_packed_matches_fake_quant_for_every_searcher() {
    packed_matches_fake_quant(ModelKind::Resnet18, "resnet18");
}

#[test]
fn resnet50_style_packed_matches_fake_quant_for_every_searcher() {
    packed_matches_fake_quant(ModelKind::Resnet50, "resnet50");
}
