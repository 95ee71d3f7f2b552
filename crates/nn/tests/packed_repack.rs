//! The integer forward keeps each convolution's nonzero-weight list and
//! reuses its activation buffers across calls. Neither may leak stale
//! state:
//!
//! - after the weights move and the net is packed again, the next
//!   integer forward equals a freshly built and packed net bit for bit,
//!   however many forwards ran before on the thread's pooled buffers;
//! - a weight code beyond its grid's `q_max` (a crafted payload) still
//!   fails with a typed `InvalidArgument`, not a wrong sum.

use ccq_nn::checkpoint::Checkpoint;
use ccq_nn::layers::{BasicBlock, BatchNorm2d, GlobalAvgPool, QConv2d, QLinear, Relu, Sequential};
use ccq_nn::{Network, NnError, PackedExec};
use ccq_quant::grid::WeightGrid;
use ccq_quant::{BitWidth, PackedWeights, PolicyKind, QuantSpec};
use ccq_tensor::{rng, Init, Tensor, TensorError};

/// A stem, a basic block with a projection shortcut and a head, with
/// weights cycling through 8, 4 and 2 bits under 8-bit max-abs
/// activations, so every layer runs the integer path.
fn net(seed: u64) -> Network {
    let mut r = rng(seed);
    let spec = QuantSpec::full_precision(PolicyKind::MaxAbs);
    let mut net = Network::new(Sequential::new(vec![
        Box::new(QConv2d::new_3x3("stem", 3, 4, 1, spec, &mut r)),
        Box::new(BatchNorm2d::new("stem.bn", 4)),
        Box::new(Relu::new()),
        Box::new(BasicBlock::new("block", 4, 8, 2, spec, &mut r)),
        Box::new(BasicBlock::new("block2", 8, 8, 1, spec, &mut r)),
        Box::new(GlobalAvgPool::new()),
        Box::new(QLinear::new("head", 8, 3, spec, &mut r)),
    ]));
    for i in 0..net.quant_layer_count() {
        let bits = BitWidth::of([8, 4, 2][i % 3]);
        net.set_quant_spec(i, QuantSpec::new(PolicyKind::MaxAbs, bits, BitWidth::of(8)));
    }
    net
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn repacking_moved_weights_equals_a_fresh_pack() {
    let x = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[2, 3, 8, 8], &mut rng(5));
    let mut moved = net(1);
    moved.pack_weights();
    let before = moved.forward_packed(&x, PackedExec::Integer).unwrap();
    assert_eq!(
        bits(&before),
        bits(&moved.forward_packed(&x, PackedExec::Integer).unwrap())
    );

    // Every weight takes another net's value, then the net packs again.
    Checkpoint::capture(&mut net(2)).apply(&mut moved).unwrap();
    moved.pack_weights();
    // The fresh net runs on a thread of its own, so it shares no
    // per-thread state with the one under test.
    let want = std::thread::scope(|s| {
        s.spawn(|| {
            let mut fresh = net(2);
            fresh.pack_weights();
            bits(&fresh.forward_packed(&x, PackedExec::Integer).unwrap())
        })
        .join()
        .unwrap()
    });
    assert_ne!(want, bits(&before), "the weights did move");
    for _ in 0..3 {
        let got = moved.forward_packed(&x, PackedExec::Integer).unwrap();
        assert_eq!(bits(&got), want);
    }
}

#[test]
fn a_weight_code_beyond_its_grid_is_a_typed_error() {
    let x = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[1, 3, 6, 6], &mut rng(6));
    let mut n = net(3);
    n.pack_weights();
    n.forward_packed(&x, PackedExec::Integer).unwrap();
    // Storage code 255 of an 8-bit grid decodes to -128, one beyond the
    // grid's q_max of 127. The stem is an 8-bit layer.
    let mut first = true;
    n.visit_quant(&mut |h| {
        if std::mem::take(&mut first) {
            let p = h.packed.as_ref().unwrap();
            let grid = WeightGrid {
                alpha: 1.0,
                qmax: 127,
            };
            let crafted =
                PackedWeights::from_parts(p.shape().to_vec(), 8, grid, vec![255; p.len()]);
            *h.packed = Some(crafted.unwrap());
        }
    });
    n.mark_packed();
    match n.forward_packed(&x, PackedExec::Integer) {
        Err(NnError::Tensor(TensorError::InvalidArgument(m))) => {
            assert!(m.contains("weight code magnitude 128"), "{m}");
        }
        other => panic!("expected InvalidArgument, got {other:?}"),
    }
    // The dequantized path never builds the list and still runs.
    assert!(n.forward_packed(&x, PackedExec::Dequant).is_ok());
}
