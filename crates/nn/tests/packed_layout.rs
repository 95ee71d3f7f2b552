//! The packed forward carries rank-4 activations batch-innermost
//! (`[c, h, w, n]`) between its entry and exit conversions; none of
//! that may show in the output. On nets that run the layers the ResNet
//! goldens do not (max-pooling, flatten, biased convolutions, a 1×1
//! stride-1 convolution, an unpacked full-precision convolution and a
//! rank-4 output):
//!
//! - dequant execution equals the `Eval` fake-quant forward bit for bit,
//!   also under ACIQ, whose activation clip is a sum over the whole
//!   tensor and so depends on the order it reads the elements in, and
//!   under the affine grid, whose weights do not pack;
//! - integer execution equals the digest the NCHW packed forward gave
//!   before the layout changed.

use ccq_nn::layers::{
    BatchNorm2d, Flatten, GlobalAvgPool, MaxPool2d, QConv2d, QLinear, Relu, Sequential,
};
use ccq_nn::{Layer, Mode, Network, PackedExec, StateTag};
use ccq_quant::{BitWidth, PolicyKind, QuantSpec};
use ccq_tensor::{rng, Init, Rng64, Tensor};

/// FNV-1a over the output's bit patterns.
fn digest(t: &Tensor) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in t.as_slice() {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `layers` as a net whose non-weight state (batch-norm `γ`, `β`,
/// running statistics, biases) holds seeded values in `[0.25, 2]` and
/// whose quantizable layers take `specs` in order.
fn net(layers: Vec<Box<dyn Layer>>, specs: &[QuantSpec], seed: u64) -> Network {
    let mut net = Network::new(Sequential::new(layers));
    let mut r = rng(seed);
    net.visit_state_tensors(&mut |tag, t| {
        if tag == StateTag::Other {
            *t = Init::Uniform { lo: 0.25, hi: 2.0 }.sample(t.shape(), &mut r);
        }
    });
    assert_eq!(net.quant_layer_count(), specs.len());
    for (i, &spec) in specs.iter().enumerate() {
        net.set_quant_spec(i, spec);
    }
    net
}

fn spec(policy: PolicyKind, weight_bits: u32) -> QuantSpec {
    QuantSpec::new(policy, BitWidth::of(weight_bits), BitWidth::of(8))
}

/// The plain CNN of `ccq_models::plain_cnn` at width 4: three 3×3
/// convolutions, a 2×2 max-pool after the first, global average pooling
/// and a linear head.
fn plain_cnn(r: &mut Rng64) -> Vec<Box<dyn Layer>> {
    let fp = QuantSpec::full_precision(PolicyKind::MaxAbs);
    vec![
        Box::new(QConv2d::new_3x3("conv1", 3, 4, 1, fp, r)),
        Box::new(BatchNorm2d::new("bn1", 4)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(2, 2)),
        Box::new(QConv2d::new_3x3("conv2", 4, 8, 1, fp, r)),
        Box::new(BatchNorm2d::new("bn2", 8)),
        Box::new(Relu::new()),
        Box::new(QConv2d::new_3x3("conv3", 8, 8, 2, fp, r)),
        Box::new(BatchNorm2d::new("bn3", 8)),
        Box::new(Relu::new()),
        Box::new(GlobalAvgPool::new()),
        Box::new(QLinear::new("fc", 8, 4, fp, r)),
    ]
}

/// Convolutions only, ending on a rank-4 output: a biased padded 3×3, a
/// 1×1 stride-1 one, a biased strided 3×3 and a 1×1 stride-2 one.
fn conv_only(r: &mut Rng64) -> Vec<Box<dyn Layer>> {
    let fp = QuantSpec::full_precision(PolicyKind::MaxAbs);
    vec![
        Box::new(QConv2d::new_full("c1", 3, 4, 3, 1, 1, true, fp, r)),
        Box::new(BatchNorm2d::new("bn1", 4)),
        Box::new(Relu::new()),
        Box::new(QConv2d::new_1x1("c2", 4, 6, 1, fp, r)),
        Box::new(Relu::new()),
        Box::new(QConv2d::new_full("c3", 6, 5, 3, 2, 1, true, fp, r)),
        Box::new(BatchNorm2d::new("bn3", 5)),
        Box::new(QConv2d::new_1x1("c4", 5, 3, 2, fp, r)),
    ]
}

/// A strided convolution flattened into a linear head.
fn flattened(r: &mut Rng64) -> Vec<Box<dyn Layer>> {
    let fp = QuantSpec::full_precision(PolicyKind::MaxAbs);
    vec![
        Box::new(QConv2d::new_3x3("c1", 3, 4, 2, fp, r)),
        Box::new(BatchNorm2d::new("bn1", 4)),
        Box::new(Relu::new()),
        Box::new(Flatten::new()),
        Box::new(QLinear::new("fc", 4 * 4 * 5, 3, fp, r)),
    ]
}

/// Checks dequant against fake-quant and returns the integer digest.
fn run(name: &str, mut net: Network, x: &Tensor) -> u64 {
    let fake = net.forward(x, Mode::Eval).unwrap();
    net.pack_weights();
    let dequant = net.forward_packed(x, PackedExec::Dequant).unwrap();
    assert_eq!(dequant.shape(), fake.shape(), "{name}");
    assert_eq!(bits(&dequant), bits(&fake), "{name}: dequant differs");
    let integer = net.forward_packed(x, PackedExec::Integer).unwrap();
    assert_eq!(integer.shape(), fake.shape(), "{name}");
    let again = net.forward_packed(x, PackedExec::Integer).unwrap();
    assert_eq!(bits(&again), bits(&integer), "{name}: repeat differs");
    digest(&integer)
}

fn input(dims: &[usize], seed: u64) -> Tensor {
    Init::Uniform { lo: -1.0, hi: 1.0 }.sample(dims, &mut rng(seed))
}

#[test]
fn plain_cnn_matches_fake_quant_and_its_digest() {
    let specs = [8, 4, 2].map(|b| spec(PolicyKind::MaxAbs, b));
    let specs = [&specs[..], &[QuantSpec::full_precision(PolicyKind::MaxAbs)]].concat();
    let net = net(plain_cnn(&mut rng(1)), &specs, 2);
    let got = run("plain_cnn", net, &input(&[3, 3, 10, 10], 3));
    assert_eq!(got, 0x01ff_c411_4744_66c1, "plain_cnn digest {got:#018x}");
}

#[test]
fn conv_only_net_matches_fake_quant_and_its_digest() {
    let mut got = Vec::new();
    // ACIQ's clip and the affine grid's range are statistics of the
    // whole activation tensor; the affine weights do not pack, so every
    // convolution under it takes the fallback path.
    let policies = [
        PolicyKind::MaxAbs,
        PolicyKind::Aciq,
        PolicyKind::UniformAffine,
    ];
    for (k, policy) in policies.into_iter().enumerate() {
        // The last convolution stays full precision, so it is not
        // packed and takes the fallback path.
        let specs = [
            spec(policy, 8),
            spec(policy, 4),
            spec(policy, 2),
            QuantSpec::full_precision(policy),
        ];
        let net = net(conv_only(&mut rng(4 + k as u64)), &specs, 5);
        let x = input(&[2, 3, 9, 7], 6);
        got.push(run(&format!("conv_only {policy:?}"), net, &x));
    }
    assert_eq!(
        got,
        [
            0xa1d7_0fc7_087c_86e7,
            0x5ee2_e81d_ddea_c828,
            0x4828_d8df_c9dd_4b20
        ],
        "conv_only digests {got:#018x?}"
    );
}

#[test]
fn flattened_net_matches_fake_quant_and_its_digest() {
    let specs = [spec(PolicyKind::MaxAbs, 4), spec(PolicyKind::MaxAbs, 8)];
    let net = net(flattened(&mut rng(7)), &specs, 8);
    let got = run("flattened", net, &input(&[3, 3, 8, 10], 9));
    assert_eq!(got, 0x2c95_f185_6227_39ba, "flattened digest {got:#018x}");
}
