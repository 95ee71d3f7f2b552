//! Serial/parallel bit-identity for `evaluate`: validation metrics must be
//! byte-for-byte identical at any thread count. The parallel path splits
//! batches over cloned network states but reduces per-batch metrics with
//! the same ordered `f64` chain as the serial path, so equality is exact.

use ccq_nn::layers::{QConv2d, QLinear, Relu, Sequential};
use ccq_nn::train::{evaluate, Batch};
use ccq_nn::Network;
use ccq_quant::{PolicyKind, QuantSpec};
use ccq_tensor::par::with_threads;
use ccq_tensor::{rng, Init};
use proptest::prelude::*;

fn batches(
    n_batches: usize,
    batch_len: usize,
    features: usize,
    classes: usize,
    seed: u64,
) -> Vec<Batch> {
    let mut r = rng(seed);
    (0..n_batches)
        .map(|_| {
            let images = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[batch_len, features], &mut r);
            let labels = (0..batch_len).map(|i| i % classes).collect();
            Batch::new(images, labels).expect("label count matches")
        })
        .collect()
}

fn mlp(features: usize, classes: usize, seed: u64) -> Network {
    let mut r = rng(seed);
    let spec = QuantSpec::full_precision(PolicyKind::Pact);
    Network::new(Sequential::new(vec![
        Box::new(QLinear::new("fc1", features, 12, spec, &mut r)),
        Box::new(Relu::new()),
        Box::new(QLinear::new("fc2", 12, classes, spec, &mut r)),
    ]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `evaluate` returns bit-identical loss and accuracy at 1, 2, 4 and
    /// 8 threads, for any batch count (including counts that don't divide
    /// evenly over the workers).
    #[test]
    fn evaluate_is_thread_invariant(n_batches in 1usize..10, seed in 0u64..1000) {
        let master = mlp(6, 3, seed);
        let val = batches(n_batches, 8, 6, 3, seed.wrapping_add(1));
        let baseline = with_threads(1, || {
            let mut net = master.clone();
            evaluate(&mut net, &val).unwrap()
        });
        for threads in [2usize, 4, 8] {
            let got = with_threads(threads, || {
                let mut net = master.clone();
                evaluate(&mut net, &val).unwrap()
            });
            prop_assert_eq!(
                baseline.loss.to_bits(),
                got.loss.to_bits(),
                "loss differs at {} threads",
                threads
            );
            prop_assert_eq!(
                baseline.accuracy.to_bits(),
                got.accuracy.to_bits(),
                "accuracy differs at {} threads",
                threads
            );
        }
    }
}

/// A convolutional network runs its im2col/matmul kernels inside each
/// evaluation piece; the split evaluation must still be exact.
#[test]
fn conv_net_evaluation_is_thread_invariant() {
    let mut r = rng(42);
    let spec = QuantSpec::full_precision(PolicyKind::Pact);
    let master = Network::new(Sequential::new(vec![
        Box::new(QConv2d::new_3x3("conv1", 2, 4, 1, spec, &mut r)),
        Box::new(Relu::new()),
        Box::new(ccq_nn::layers::Flatten::new()),
        Box::new(QLinear::new("head", 4 * 6 * 6, 3, spec, &mut r)),
    ]));
    let val: Vec<Batch> = (0..5)
        .map(|i| {
            let images = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[4, 2, 6, 6], &mut r);
            Batch::new(images, vec![i % 3; 4]).expect("label count matches")
        })
        .collect();
    let baseline = with_threads(1, || {
        let mut net = master.clone();
        evaluate(&mut net, &val).unwrap()
    });
    for threads in [2usize, 4, 8] {
        let got = with_threads(threads, || {
            let mut net = master.clone();
            evaluate(&mut net, &val).unwrap()
        });
        assert_eq!(baseline, got, "metrics differ at {threads} threads");
    }
}

/// Cloned evaluation leaves the original network's state untouched: a
/// parallel evaluate followed by a serial one gives the serial answer.
#[test]
fn evaluate_does_not_perturb_network_state() {
    let master = mlp(6, 3, 9);
    let val = batches(7, 8, 6, 3, 10);
    let serial_only = with_threads(1, || {
        let mut net = master.clone();
        evaluate(&mut net, &val).unwrap()
    });
    let after_parallel = with_threads(4, || {
        let mut net = master.clone();
        let _ = evaluate(&mut net, &val).unwrap();
        with_threads(1, || evaluate(&mut net, &val).unwrap())
    });
    assert_eq!(serial_only, after_parallel);
}
