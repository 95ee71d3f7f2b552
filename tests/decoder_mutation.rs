//! The binary decoders refuse crafted headers with a typed error, never a
//! panic. Each case takes a valid CCQCKPT, CCQRUNS or CCQPACK buffer and
//! rewrites one encoded tensor shape in place, leaving every byte after
//! it as written, so a decoder that misjudged the shape would read on.
//! `PackedWeights::from_parts`, which rebuilds one packed tensor from
//! wire parts, refuses the same shapes.
//!
//! The shapes are ones whose element count overflows `usize` on a 64-bit
//! target: rank 4 with every dim 65536 (2⁶⁴, which wraps to 0) and rank 8
//! with every dim `u32::MAX`.

use ccq::{CcqError, RunState, SearcherState};
use ccq_infer::{InferError, PackedModel};
use ccq_models::mlp;
use ccq_nn::checkpoint::Checkpoint;
use ccq_nn::NnError;
use ccq_quant::grid::symmetric_qmax;
use ccq_quant::{PackedWeights, PolicyKind, WeightGrid};
use ccq_tensor::{PackError, Tensor};

/// Shapes whose element count does not fit a `usize`.
const OVERFLOWING: [&[u32]; 2] = [&[65536; 4], &[u32::MAX; 8]];

/// The first weight of `mlp(&[3, 7, 2])`, the tensor each case rewrites.
const SHAPE: [u32; 2] = [7, 3];

/// The wire encoding of a shape: rank then dims, each a `u32` LE.
fn encode(dims: &[u32]) -> Vec<u8> {
    std::iter::once(dims.len() as u32)
        .chain(dims.iter().copied())
        .flat_map(u32::to_le_bytes)
        .collect()
}

/// `bytes` with the first encoded `from` shape replaced by `to`.
fn splice_shape(bytes: &[u8], from: &[u32], to: &[u32]) -> Vec<u8> {
    let needle = encode(from);
    let at = bytes
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("the shape is encoded in the buffer");
    [&bytes[..at], &encode(to)[..], &bytes[at + needle.len()..]].concat()
}

fn checkpoint() -> Checkpoint {
    Checkpoint::capture(&mut mlp(&[3, 7, 2], PolicyKind::Pact, 0))
}

#[test]
fn checkpoint_rejects_overflowing_dims() {
    let bytes = checkpoint().to_bytes();
    for dims in OVERFLOWING {
        match Checkpoint::from_bytes(&splice_shape(&bytes, &SHAPE, dims)) {
            Err(NnError::CheckpointFormat(msg)) => assert!(msg.contains("tensor size"), "{msg}"),
            other => panic!("dims {dims:?}: expected CheckpointFormat, got {other:?}"),
        }
    }
}

#[test]
fn run_state_rejects_overflowing_dims() {
    let state = RunState {
        seed: 7,
        gamma: 0.5,
        ladder: vec![8, 4, 2],
        granularity_code: 0,
        regime_code: 0,
        targets: None,
        next_step: 1,
        epoch: 0,
        baseline_accuracy: 0.9,
        last_accuracy: 0.9,
        lr: 0.01,
        base_lr: 0.01,
        rng: [1, 2, 3, 4],
        plateau: (0.9, 0, None),
        searcher: SearcherState::Hedge { pi: vec![] },
        rollbacks: 0,
        // The velocity section precedes the embedded checkpoint, so this
        // is the first encoded `SHAPE`.
        velocities: vec![Tensor::zeros(&[7, 3])],
        ckpt: checkpoint(),
        trace: vec![],
        steps: vec![],
    };
    let bytes = state.to_bytes();
    for dims in OVERFLOWING {
        match RunState::from_bytes(&splice_shape(&bytes, &SHAPE, dims)) {
            Err(CcqError::CheckpointIo(msg)) => assert!(msg.contains("tensor size"), "{msg}"),
            other => panic!("dims {dims:?}: expected CheckpointIo, got {other:?}"),
        }
    }
}

#[test]
fn packed_model_rejects_overflowing_dims() {
    let mut net = mlp(&[3, 7, 2], PolicyKind::Pact, 0);
    let bytes = PackedModel::capture(&mut net, "mlp:3x7x2")
        .unwrap()
        .to_bytes();
    for dims in OVERFLOWING {
        match PackedModel::from_bytes(&splice_shape(&bytes, &SHAPE, dims)) {
            Err(InferError::PackFormat(msg)) => assert!(msg.contains("tensor size"), "{msg}"),
            other => panic!("dims {dims:?}: expected PackFormat, got {other:?}"),
        }
    }
}

#[test]
fn packed_weights_reject_overflowing_dims() {
    let grid = WeightGrid {
        alpha: 1.0,
        qmax: symmetric_qmax(4),
    };
    for dims in OVERFLOWING {
        let shape = dims.iter().map(|&d| d as usize).collect();
        // Wrapped to 0 elements, an empty payload would look consistent.
        match PackedWeights::from_parts(shape, 4, grid, vec![]) {
            Err(PackError::ShapeOverflow) => {}
            other => panic!("dims {dims:?}: expected ShapeOverflow, got {other:?}"),
        }
    }
}
