//! Cross-crate integration: the deployment path — CCQ quantizes a network,
//! the result survives a checkpoint round trip, and a max-abs layer packed
//! into a `CCQPACK` artifact computes the same result in true integer
//! arithmetic.

use ccq_repro::ccq::{CcqConfig, CcqRunner, NullSink, RecoveryMode};
use ccq_repro::data::{gaussian_blobs, BlobsConfig};
use ccq_repro::infer::{arch, PackedModel};
use ccq_repro::models::mlp;
use ccq_repro::nn::checkpoint::Checkpoint;
use ccq_repro::nn::train::train_epoch;
use ccq_repro::nn::{Mode, Network, PackedExec, Sgd};
use ccq_repro::quant::{BitLadder, BitWidth, PolicyKind, QuantSpec};
use ccq_repro::tensor::{rng, Init, Rng64, Tensor};

fn trained_mlp() -> (
    Network,
    Vec<ccq_repro::nn::train::Batch>,
    Vec<ccq_repro::nn::train::Batch>,
) {
    let ds = gaussian_blobs(&BlobsConfig {
        classes: 3,
        dim: 6,
        samples_per_class: 48,
        std: 0.35,
        seed: 70,
    });
    let (train, val) = ds.split_at(108);
    let (train_b, val_b) = (train.batches(16), val.batches(36));
    let mut net = mlp(&[6, 12, 3], PolicyKind::MaxAbs, 15);
    let mut opt = Sgd::new(0.05).momentum(0.9);
    let mut r = rng(16);
    for _ in 0..12 {
        train_epoch(&mut net, &train_b, &mut opt, &mut r).unwrap();
    }
    (net, train_b, val_b)
}

#[test]
fn ccq_result_survives_checkpoint_round_trip() {
    let (mut net, train_b, val_b) = trained_mlp();
    let cfg = CcqConfig {
        ladder: BitLadder::new(&[8, 4]).unwrap(),
        recovery: RecoveryMode::Manual { epochs: 1 },
        probe_val_batches: 1,
        seed: 17,
        ..CcqConfig::default()
    };
    let mut provider = |_: &mut Rng64| train_b.clone();
    let report = CcqRunner::new(cfg)
        .run(&mut net, &mut provider, &val_b, &mut NullSink)
        .unwrap();

    let x = Tensor::ones(&[2, 6]);
    let y_before = net.forward(&x, Mode::Eval).unwrap();
    let bytes = Checkpoint::capture(&mut net).to_bytes();

    // A fresh network of the same architecture, different weights.
    let mut fresh = mlp(&[6, 12, 3], PolicyKind::MaxAbs, 999);
    Checkpoint::from_bytes(&bytes)
        .unwrap()
        .apply(&mut fresh)
        .unwrap();
    let y_after = fresh.forward(&x, Mode::Eval).unwrap();
    assert_eq!(y_before.as_slice(), y_after.as_slice());

    // The mixed-precision assignment came along.
    let restored: Vec<BitWidth> = (0..fresh.quant_layer_count())
        .map(|i| fresh.quant_spec(i).weight_bits)
        .collect();
    let from_report: Vec<BitWidth> = report.bit_assignment.iter().map(|(_, w, _)| *w).collect();
    assert_eq!(restored, from_report);
}

#[test]
fn fake_quant_linear_matches_integer_execution() {
    // A single max-abs quantized linear layer must compute the same result
    // through the fake-quant f32 path and, once packed, written as a
    // CCQPACK artifact and read back, through integer execution.
    let mut r = rng(18);
    let w = Init::Normal {
        mean: 0.0,
        std: 0.5,
    }
    .sample(&[4, 6], &mut r);
    let x = Init::Uniform { lo: 0.0, hi: 1.0 }.sample(&[3, 6], &mut r);
    for bits in [3u32, 4, 8] {
        let mut net = mlp(&[6, 4], PolicyKind::MaxAbs, 0);
        net.set_all_quant_specs(QuantSpec::new(
            PolicyKind::MaxAbs,
            BitWidth::of(bits),
            BitWidth::of(bits),
        ));
        net.visit_quant(&mut |h| h.weight.value = w.clone());
        let y_fake = net.forward(&x, Mode::Eval).unwrap();
        let bytes = PackedModel::capture(&mut net, &arch::mlp_arch(&[6, 4]))
            .unwrap()
            .to_bytes();
        let mut deployed = PackedModel::from_bytes(&bytes)
            .unwrap()
            .instantiate()
            .unwrap();
        let y_int = deployed.forward_packed(&x, PackedExec::Integer).unwrap();
        assert_eq!(y_int.shape(), y_fake.shape());
        for (a, b) in y_int.as_slice().iter().zip(y_fake.as_slice()) {
            assert!(
                (a - b).abs() < 1e-4 * (1.0 + b.abs()),
                "bits={bits}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn checkpoint_bytes_are_stable_across_captures() {
    let (mut net, _, _) = trained_mlp();
    let a = Checkpoint::capture(&mut net).to_bytes();
    let b = Checkpoint::capture(&mut net).to_bytes();
    assert_eq!(a, b, "capturing twice without training must be identical");
}
