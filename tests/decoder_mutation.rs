//! The decoders of untrusted bytes return a typed error or a valid value
//! and never panic: CCQCKPT, CCQRUNS v1/v2, CCQPACK, `ccq-job` specs and
//! the JSONL event log.
//!
//! * Crafted shapes: each case takes a valid CCQCKPT, CCQRUNS or CCQPACK
//!   buffer and rewrites one encoded tensor shape in place, leaving every
//!   byte after it as written, so a decoder that misjudged the shape would
//!   read on. The shapes are ones whose element count overflows `usize`
//!   on a 64-bit target: rank 4 with every dim 65536 (2⁶⁴, which wraps to
//!   0) and rank 8 with every dim `u32::MAX`. `PackedWeights::from_parts`,
//!   which rebuilds one packed tensor from wire parts, refuses the same
//!   shapes.
//! * Crafted headers that declare far more data than they carry must fail
//!   without allocating for it: they are decoded in a child process whose
//!   address space `ulimit -v` caps below the declared size.
//! * Mutations: truncation at every offset, and generated bit flips,
//!   inflated length/rank/dim fields and spliced buffers.

use ccq::{parse_events, parse_events_lenient, CcqError, RunState, SearcherState};
use ccq_infer::{InferError, PackedModel};
use ccq_models::mlp;
use ccq_nn::checkpoint::Checkpoint;
use ccq_nn::NnError;
use ccq_quant::grid::symmetric_qmax;
use ccq_quant::{BitWidth, PackedWeights, PolicyKind, QuantSpec, WeightGrid};
use ccq_serve::JobSpec;
use ccq_tensor::{PackError, Tensor};
use proptest::prelude::*;
use std::process::Command;

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

/// A run state whose velocity section precedes the embedded checkpoint,
/// so its `[7, 3]` velocity is the first encoded `SHAPE`.
fn run_state() -> RunState {
    RunState {
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
        velocities: vec![Tensor::zeros(&[7, 3])],
        ckpt: checkpoint(),
        trace: vec![],
        steps: vec![],
    }
}

#[test]
fn run_state_rejects_overflowing_dims() {
    let state = run_state();
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

/// Names the child process of [`crafted_headers_fail_typed_under_a_memory_cap`]
/// decodes; unset in an ordinary test run.
const CHILD_VAR: &str = "CCQ_DECODE_CRAFTED";

/// The child's address-space cap in KiB (~684 MiB): below every declared
/// size, far above what decoding the actual bytes needs.
const CAP_KIB: u32 = 700_000;

/// Headers that declare far more data than they carry. `valid` is the
/// control: a well-formed checkpoint that must decode under the cap.
const CRAFTED: [&str; 5] = [
    "valid",
    "checkpoint-tensor",
    "checkpoint-count",
    "pack-state",
    "run-state-velocity",
];

fn crafted(name: &str) -> Vec<u8> {
    let u32s = |xs: &[u32]| -> Vec<u8> { xs.iter().flat_map(|x| x.to_le_bytes()).collect() };
    match name {
        // 24 bytes declaring one [16384, 16384] tensor: 1 GiB of f32.
        "checkpoint-tensor" => [&b"CCQCKPT\x01"[..], &u32s(&[1, 2, 16384, 16384])].concat(),
        // 12 bytes declaring 2^24 tensors.
        "checkpoint-count" => [&b"CCQCKPT\x01"[..], &u32s(&[1 << 24])].concat(),
        // 36 bytes: arch "m", no layers, one [16384, 16384] state tensor.
        "pack-state" => [
            &b"CCQPACK\x01\x00"[..],
            &u32s(&[1]),
            b"m\x01",
            &u32s(&[0]),
            b"\x02",
            &u32s(&[1, 2, 16384, 16384]),
        ]
        .concat(),
        "run-state-velocity" => splice_shape(&run_state().to_bytes(), &SHAPE, &[16384, 16384]),
        _ => checkpoint().to_bytes(),
    }
}

/// Runs only as the capped child: decodes the header `CHILD_VAR` names
/// and requires the decoder's typed error.
#[test]
fn decode_crafted_header_as_capped_child() {
    let Ok(name) = std::env::var(CHILD_VAR) else {
        return;
    };
    let bytes = crafted(&name);
    let typed = match name.as_str() {
        "checkpoint-tensor" | "checkpoint-count" => matches!(
            Checkpoint::from_bytes(&bytes),
            Err(NnError::CheckpointFormat(_))
        ),
        "pack-state" => matches!(
            PackedModel::from_bytes(&bytes),
            Err(InferError::PackFormat(_))
        ),
        "run-state-velocity" => {
            matches!(RunState::from_bytes(&bytes), Err(CcqError::CheckpointIo(_)))
        }
        _ => Checkpoint::from_bytes(&bytes).is_ok(),
    };
    assert!(typed, "{name}: unexpected decode result");
}

#[test]
fn crafted_headers_fail_typed_under_a_memory_cap() {
    let exe = std::env::current_exe().expect("test binary path");
    for name in CRAFTED {
        let out = Command::new("sh")
            .arg("-c")
            .arg(format!("ulimit -v {CAP_KIB} && exec \"$0\" \"$@\""))
            .arg(&exe)
            .args(["decode_crafted_header_as_capped_child", "--exact"])
            .args(["--test-threads=1", "--nocapture"])
            .env(CHILD_VAR, name)
            .output()
            .expect("spawn sh");
        assert!(
            out.status.success(),
            "{name}: capped decode exited with {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// The decoders fed by the mutation tests.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Format {
    Checkpoint,
    RunState,
    Pack,
    JobSpec,
    Jsonl,
}

/// A mixed-precision net with a packed int8 layer, for a second CCQPACK
/// sample beside the golden.
fn packed_model() -> PackedModel {
    let mut net = mlp(&[3, 7, 2], PolicyKind::Pact, 0);
    net.set_quant_spec(
        0,
        QuantSpec::new(PolicyKind::MaxAbs, BitWidth::of(8), BitWidth::of(8)),
    );
    PackedModel::capture(&mut net, "mlp:3x7x2").unwrap()
}

/// A decoder's valid input, and a second input of the same format to
/// splice it with.
type Sample = (Format, Vec<u8>, Vec<u8>);

fn samples() -> &'static [Sample] {
    static SAMPLES: std::sync::OnceLock<Vec<Sample>> = std::sync::OnceLock::new();
    SAMPLES.get_or_init(|| {
        let state = run_state();
        let text = |s: &str| s.as_bytes().to_vec();
        vec![
            (
                Format::Checkpoint,
                include_bytes!("golden/checkpoint.bin").to_vec(),
                checkpoint().to_bytes(),
            ),
            (
                Format::RunState,
                include_bytes!("golden/run_state_v2.bin").to_vec(),
                state.to_bytes(),
            ),
            (
                Format::RunState,
                state.to_legacy_v1_bytes(),
                include_bytes!("golden/run_state_v2.bin").to_vec(),
            ),
            (
                Format::Pack,
                include_bytes!("golden/packed_model.bin").to_vec(),
                packed_model().to_bytes(),
            ),
            (
                Format::JobSpec,
                text(include_str!("../crates/serve/tests/golden/demo_spec_0.txt")),
                text(include_str!("../crates/serve/tests/golden/alt_spec.txt")),
            ),
            (
                Format::Jsonl,
                text(include_str!("../crates/core/tests/golden/events.jsonl")),
                text(include_str!("../crates/core/tests/golden/events.jsonl")),
            ),
        ]
    })
}

/// Decodes `bytes`; `Err` describes an error outside the format's typed
/// one. A panic fails the calling test by itself.
fn decode(format: Format, bytes: &[u8]) -> Result<(), String> {
    let untyped = |e: &dyn std::fmt::Debug| Err(format!("{format:?}: untyped error {e:?}"));
    let text = String::from_utf8_lossy(bytes);
    match format {
        Format::Checkpoint => match Checkpoint::from_bytes(bytes) {
            Ok(_) | Err(NnError::CheckpointFormat(_)) => Ok(()),
            Err(e) => untyped(&e),
        },
        Format::RunState => match RunState::from_bytes(bytes) {
            Ok(_) | Err(CcqError::CheckpointIo(_)) => Ok(()),
            Err(e) => untyped(&e),
        },
        Format::Pack => match PackedModel::from_bytes(bytes) {
            Ok(_) | Err(InferError::PackFormat(_)) => Ok(()),
            Err(e) => untyped(&e),
        },
        // Their error types are format-specific by construction.
        Format::JobSpec => JobSpec::parse(&text).map(drop).or(Ok(())),
        Format::Jsonl => {
            let _ = parse_events_lenient(&text);
            parse_events(&text).map(drop).or(Ok(()))
        }
    }
}

/// A SplitMix64 stream choosing mutation sites from one seed.
struct Dice(u64);

impl Dice {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n.max(1) as u64) as usize
    }
}

/// One mutation of `bytes`: up to three bit flips, one inflated length,
/// rank or dim field, or a splice of a prefix of `bytes` onto a suffix of
/// `other`. In a binary format a small little-endian `u32` is most likely
/// a count, rank or dim, and becomes a huge one; in a text format a digit
/// gains twenty more.
fn mutate(format: Format, bytes: &[u8], other: &[u8], seed: u64) -> Vec<u8> {
    let mut d = Dice(seed);
    let mut out = bytes.to_vec();
    match d.below(3) {
        0 => {
            for _ in 0..=d.below(3) {
                let i = d.below(out.len());
                out[i] ^= 1 << d.below(8);
            }
        }
        1 if matches!(format, Format::JobSpec | Format::Jsonl) => {
            let digits: Vec<usize> = (0..out.len())
                .filter(|&i| out[i].is_ascii_digit())
                .collect();
            let at = digits[d.below(digits.len())];
            out.splice(at..at, *b"18446744073709551616");
        }
        1 => {
            let small = |w: &[u8]| (1..=64).contains(&u32::from_le_bytes([w[0], w[1], w[2], w[3]]));
            let fields: Vec<usize> = (0..out.len() - 3).filter(|&i| small(&out[i..])).collect();
            let at = fields[d.below(fields.len())];
            let huge = [u32::MAX, 1 << 31, 1 << 28, 1 << 24, 65536, 16384, 1000][d.below(7)];
            out[at..at + 4].copy_from_slice(&huge.to_le_bytes());
        }
        _ => {
            out.truncate(d.below(out.len() + 1));
            out.extend_from_slice(&other[d.below(other.len() + 1)..]);
        }
    }
    out
}

#[test]
fn every_truncation_decodes_to_a_typed_error() {
    for (format, bytes, _) in samples() {
        for keep in 0..bytes.len() {
            if let Err(e) = decode(*format, &bytes[..keep]) {
                panic!("prefix of {keep} bytes: {e}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_inputs_decode_to_a_value_or_a_typed_error(seed in 0u64..u64::MAX) {
        for (format, bytes, other) in samples() {
            let mutated = mutate(*format, bytes, other, seed);
            decode(*format, &mutated).map_err(TestCaseError::fail)?;
        }
    }
}
