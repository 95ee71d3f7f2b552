//! Byte goldens for the three binary formats: CCQCKPT (network
//! checkpoint), CCQRUNS v2 (in-flight run state) and CCQPACK (packed
//! deployable artifact). Each test builds one fixed value, requires the
//! writer to produce the checked-in bytes, and requires the reader to
//! give back the value from those bytes. Set `CCQ_BLESS=1` to re-bless
//! after an intentional format change.

use ccq::{CcqError, ExpertKind, RunState, SearcherState, StepRecord, TraceEvent, TracePoint};
use ccq_infer::PackedModel;
use ccq_models::mlp;
use ccq_nn::checkpoint::Checkpoint;
use ccq_nn::Network;
use ccq_quant::{BitWidth, PolicyKind, QuantSpec};
use ccq_tensor::Tensor;
use std::path::Path;

/// A small MLP covering every payload regime of the packed artifact:
/// int4 over an odd element count (5×3 = 15), int8, the pruned rung and
/// full precision, under four different policies.
fn mixed_net() -> Network {
    let mut net = mlp(&[3, 5, 3, 2, 2], PolicyKind::Pact, 9);
    let specs = [
        QuantSpec::new(PolicyKind::Lsq, BitWidth::of(4), BitWidth::of(8)),
        QuantSpec::new(PolicyKind::MaxAbs, BitWidth::of(8), BitWidth::of(4)),
        QuantSpec::new(PolicyKind::Dorefa, BitWidth::ZERO, BitWidth::ZERO),
        QuantSpec::full_precision(PolicyKind::Pact),
    ];
    for (i, spec) in specs.into_iter().enumerate() {
        net.set_quant_spec(i, spec);
    }
    net
}

fn run_state() -> RunState {
    let ckpt = Checkpoint::capture(&mut mixed_net());
    RunState {
        seed: 0x0123_4567_89ab_cdef,
        gamma: 0.5,
        ladder: vec![8, 4, 2, 0],
        granularity_code: 1,
        regime_code: 1,
        targets: Some(vec![32, 4, 0]),
        next_step: 3,
        epoch: 11,
        baseline_accuracy: 0.91,
        last_accuracy: 0.875,
        lr: 0.01,
        base_lr: 0.02,
        rng: [1, u64::MAX, 3, 1 << 63],
        plateau: (0.9, 1, Some(2)),
        searcher: SearcherState::OneShot {
            order: vec![2, 0, 1],
            sensitivities: vec![0.3, -0.0, f32::INFINITY],
        },
        rollbacks: 2,
        velocities: vec![Tensor::full(&[2, 3], 0.25), Tensor::zeros(&[4])],
        ckpt,
        trace: vec![
            TracePoint {
                epoch: 0,
                val_accuracy: 0.91,
                lr: 0.02,
                event: TraceEvent::Baseline,
            },
            TracePoint {
                epoch: 1,
                val_accuracy: 0.5,
                lr: 0.02,
                event: TraceEvent::InitQuantize,
            },
            TracePoint {
                epoch: 2,
                val_accuracy: 0.85,
                lr: 0.01,
                event: TraceEvent::QuantStep {
                    layer: 2,
                    to_bits: BitWidth::ZERO,
                },
            },
            TracePoint {
                epoch: 3,
                val_accuracy: 0.875,
                lr: 0.01,
                event: TraceEvent::Recovery,
            },
        ],
        steps: vec![
            StepRecord {
                step: 1,
                layer: 0,
                kind: ExpertKind::Weights,
                label: "fc0→w".into(),
                from_bits: BitWidth::of(8),
                to_bits: BitWidth::of(4),
                accuracy_before: 0.9,
                accuracy_after_quant: 0.85,
                accuracy_after_recovery: 0.89,
                recovery_epochs: 4,
                compression: 7.5,
                lambda: 0.3,
            },
            StepRecord {
                step: 2,
                layer: 2,
                kind: ExpertKind::Activations,
                label: String::new(),
                from_bits: BitWidth::of(2),
                to_bits: BitWidth::ZERO,
                accuracy_before: 0.89,
                accuracy_after_quant: 0.5,
                accuracy_after_recovery: 0.875,
                recovery_epochs: 0,
                compression: f64::MAX,
                lambda: 0.0,
            },
        ],
    }
}

/// Requires `bytes` to equal the golden file `name`, or re-blesses it
/// when `CCQ_BLESS` is set. Returns the golden bytes.
fn check(name: &str, bytes: &[u8]) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("CCQ_BLESS").is_ok() {
        std::fs::write(&path, bytes).unwrap();
    }
    let golden = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with CCQ_BLESS=1"));
    assert!(golden == bytes, "{name}: the writer's bytes drifted");
    golden
}

#[test]
fn checkpoint_bytes_match_the_golden() {
    let ckpt = Checkpoint::capture(&mut mixed_net());
    let golden = check("checkpoint.bin", &ckpt.to_bytes());
    assert_eq!(Checkpoint::from_bytes(&golden).unwrap(), ckpt);
}

#[test]
fn run_state_bytes_match_the_golden() {
    let state = run_state();
    let golden = check("run_state_v2.bin", &state.to_bytes());
    let back: Result<RunState, CcqError> = RunState::from_bytes(&golden);
    assert_eq!(back.unwrap(), state);
}

#[test]
fn packed_model_bytes_match_the_golden() {
    let model = PackedModel::capture(&mut mixed_net(), "mlp:3x5x3x2x2").unwrap();
    let golden = check("packed_model.bin", &model.to_bytes());
    assert_eq!(PackedModel::from_bytes(&golden).unwrap(), model);
}
