//! Bit golden for packed-integer execution: `forward_packed(Integer)`
//! outputs of seeded ResNets, digested and compared to
//! `tests/golden/packed_integer.digest`.
//!
//! The other packed checks compare integer execution to fake-quant
//! within a bound, which an integer kernel change that moves the output
//! by a rounding step would pass. This one pins the exact bits, so a
//! kernel rewrite that claims to compute the same integer sums has to
//! reproduce them. Cases:
//!
//! - ResNet20, ResNet18 and ResNet50-style nets with max-abs 8-bit
//!   activations and weights cycling through 8, 4 and 2 bits (the
//!   head full precision), signed activation codes up to ±127;
//! - ResNet20 under PACT, whose unsigned activation codes reach 255 and
//!   meet 8-bit weights in the stem and every third layer.
//!
//! Every batch-norm parameter and running statistic is set to seeded
//! non-default values first, so batch-norm is not the identity. Set
//! `CCQ_BLESS=1` to re-bless after an intentional change of the
//! integer arithmetic.

use ccq_models::{ModelConfig, ModelKind};
use ccq_nn::{Network, PackedExec, StateTag};
use ccq_quant::grid::act_codes;
use ccq_quant::policies::pact::DEFAULT_ALPHA;
use ccq_quant::{BitWidth, PolicyKind, QuantSpec};
use ccq_tensor::{rng, Init, Tensor};
use std::fmt::Write as _;
use std::path::Path;

const CLASSES: usize = 10;
const WIDTH: usize = 4;
const IMAGE: usize = 16;
const BATCH: usize = 4;
const BATCHES: usize = 3;

/// Weight widths cycling through 8, 4 and 2 bits, activations at 8 and
/// the head at full precision.
fn assign_ladder(net: &mut Network, policy: PolicyKind) {
    let n = net.quant_layer_count();
    for i in 0..n {
        let spec = if i + 1 == n {
            QuantSpec::full_precision(policy)
        } else {
            QuantSpec::new(policy, BitWidth::of([8, 4, 2][i % 3]), BitWidth::of(8))
        };
        net.set_quant_spec(i, spec);
    }
}

/// A seeded, packed net whose non-weight state (batch-norm `γ`, `β`,
/// running mean and variance, biases) holds values in `[0.25, 2]`.
fn packed_net(kind: ModelKind, policy: PolicyKind, seed: u64) -> Network {
    let mut net = kind.build(&ModelConfig {
        classes: CLASSES,
        width: WIDTH,
        policy,
        seed,
    });
    let mut r = rng(seed ^ 0x5eed);
    net.visit_state_tensors_tagged(&mut |tag, t| {
        if tag == StateTag::Other {
            *t = Init::Uniform { lo: 0.25, hi: 2.0 }.sample(t.shape(), &mut r);
        }
    });
    assign_ladder(&mut net, policy);
    net.pack_weights();
    net
}

fn inputs(seed: u64, half_range: f32) -> Vec<Tensor> {
    let mut r = rng(seed);
    let dist = Init::Uniform {
        lo: -half_range,
        hi: half_range,
    };
    (0..BATCHES)
        .map(|_| dist.sample(&[BATCH, 3, IMAGE, IMAGE], &mut r))
        .collect()
}

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

#[test]
fn integer_outputs_match_the_golden() {
    let cases = [
        (
            "resnet20-maxabs",
            ModelKind::Resnet20,
            PolicyKind::MaxAbs,
            1.0,
        ),
        (
            "resnet18-maxabs",
            ModelKind::Resnet18,
            PolicyKind::MaxAbs,
            1.0,
        ),
        (
            "resnet50-maxabs",
            ModelKind::Resnet50,
            PolicyKind::MaxAbs,
            1.0,
        ),
        ("resnet20-pact", ModelKind::Resnet20, PolicyKind::Pact, 16.0),
    ];
    let mut got = String::new();
    for (k, (name, kind, policy, half_range)) in cases.into_iter().enumerate() {
        let mut net = packed_net(kind, policy, 40 + k as u64);
        for (b, x) in inputs(70 + k as u64, half_range).iter().enumerate() {
            if policy == PolicyKind::Pact {
                let codes = act_codes(policy, DEFAULT_ALPHA, BitWidth::of(8), x).unwrap();
                assert!(
                    codes.codes.contains(&255),
                    "{name}: the stem never sees code 255"
                );
            }
            let y = net.forward_packed(x, PackedExec::Integer).unwrap();
            assert!(y.as_slice().iter().all(|v| v.is_finite()), "{name}/{b}");
            let _ = writeln!(got, "{name} batch{b} {:016x}", digest(&y));
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/packed_integer.digest");
    if std::env::var("CCQ_BLESS").is_ok() {
        std::fs::write(&path, &got).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden ({e}); run with CCQ_BLESS=1"));
    assert_eq!(got, golden, "packed-integer outputs drifted");
}
