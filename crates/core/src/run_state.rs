//! Crash-safe run state: everything needed to resume a CCQ descent
//! bit-for-bit from a step boundary.
//!
//! A [`RunState`] extends the network [`Checkpoint`] with the descent's
//! own mutable state — Hedge weights π, the RNG stream, SGD momentum, the
//! LR schedule, step/epoch counters, the recovery baseline, and the
//! learning curve so far. The on-disk format mirrors the checkpoint's
//! self-contained little-endian layout under its own magic (`CCQRUNS`),
//! read and written through [`ccq_tensor::codec`].
//!
//! Writes are atomic ([`codec::write_atomic`]), with the previous
//! generation retained as `<path>.prev`. [`RunState::load_with_fallback`]
//! falls back to the previous generation when the current file is torn or
//! corrupt, so a crash mid-write never loses the run.

use crate::event::{StepRecord, TraceEvent, TracePoint};
use crate::searcher::SearcherState;
use crate::{ExpertKind, Result};
use ccq_nn::checkpoint::Checkpoint;
use ccq_tensor::codec::{self, put_blob, CodecError, Decode, Decoded, Encode, Reader};
use ccq_tensor::{wire_enum, Tensor};
use std::path::Path;

const MAGIC: &[u8; 7] = b"CCQRUNS";
/// Current write version. Version 1 (pre-[`crate::Searcher`]) stored a
/// bare π vector where version 2 stores a tagged [`SearcherState`] plus
/// the rollback counter; v1 files still load, mapping π to Hedge state.
const VERSION: u8 = 2;

// The searcher-state section (v2+): one tag byte, then the variant's
// fields in the order listed.
wire_enum! { SearcherState "searcher" {
    Hedge = 0 { pi }
    ZeroBit = 1 { pi }
    ReleqRl = 2 { theta, baseline, updates }
    OneShot = 3 { order, sensitivities }
} }

wire_enum! { TraceEvent "trace event" {
    Baseline = 0 {}
    InitQuantize = 1 {}
    QuantStep = 2 { layer, to_bits }
    Recovery = 3 {}
} }

wire_enum! { ExpertKind "expert kind" {
    Layer = 0 {}
    Weights = 1 {}
    Activations = 2 {}
} }

/// A serializable snapshot of an in-flight CCQ run at a step boundary.
///
/// The first block of fields fingerprints the configuration; resume
/// refuses to continue under a different config
/// ([`crate::CcqError::ResumeMismatch`]). The rest is the mutable descent state.
#[derive(Debug, Clone, PartialEq)]
pub struct RunState {
    /// Master seed of the run.
    pub seed: u64,
    /// Hedge learning rate γ.
    pub gamma: f32,
    /// Ladder rungs, top to floor, as raw bit counts.
    pub ladder: Vec<u32>,
    /// Expert granularity code (0 = layer, 1 = weight/act).
    pub granularity_code: u8,
    /// Probe regime code (0 = full information, 1 = sampled).
    pub regime_code: u8,
    /// Per-layer forced floors, as raw bit counts, when configured.
    pub targets: Option<Vec<u32>>,
    /// The next quantization step `t` to run (1-based).
    pub next_step: usize,
    /// Global fine-tuning epoch counter.
    pub epoch: usize,
    /// Full-precision baseline accuracy (the adaptive recovery threshold).
    pub baseline_accuracy: f32,
    /// Validation accuracy entering `next_step`.
    pub last_accuracy: f32,
    /// Optimizer learning rate in effect.
    pub lr: f32,
    /// Base LR of the hybrid schedule (guard retries may have scaled it).
    pub base_lr: f32,
    /// xoshiro256++ state of the run's RNG stream.
    pub rng: [u64; 4],
    /// Plateau tracking of the hybrid LR schedule.
    pub plateau: (f32, usize, Option<usize>),
    /// The searcher's tagged mutable state (π for Hedge, θ for the RL
    /// policy, the measured ordering for the one-shot allocator).
    pub searcher: SearcherState,
    /// Guard rollbacks taken so far in this run.
    pub rollbacks: u64,
    /// SGD momentum buffers, in parameter visit order.
    pub velocities: Vec<Tensor>,
    /// The network checkpoint (weights, batch-norm stats, α, specs).
    pub ckpt: Checkpoint,
    /// Learning curve so far.
    pub trace: Vec<TracePoint>,
    /// Completed quantization steps so far.
    pub steps: Vec<StepRecord>,
}

impl RunState {
    /// Serializes to the binary run-state format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.header_bytes();
        self.searcher.encode(&mut out);
        self.rollbacks.encode(&mut out);
        self.tail_bytes(&mut out);
        out
    }

    /// Serializes in the legacy v1 layout — a bare Hedge π vector where
    /// v2 writes the tagged searcher section and rollback counter —
    /// byte-for-byte what pre-searcher builds wrote to disk. Fixture
    /// support for compatibility tests; not part of the stable API.
    ///
    /// # Panics
    ///
    /// Panics when the searcher state isn't [`SearcherState::Hedge`]:
    /// v1 only ever stored Hedge weights.
    #[doc(hidden)]
    #[must_use]
    pub fn to_legacy_v1_bytes(&self) -> Vec<u8> {
        let SearcherState::Hedge { pi } = &self.searcher else {
            // ccq-lint: allow(panic-surface) — test-fixture API, not a runtime path.
            panic!("v1 fixtures are Hedge-only, got {:?}", self.searcher)
        };
        let mut out = self.header_bytes();
        out[7] = 1; // version byte
        pi.encode(&mut out);
        self.tail_bytes(&mut out);
        out
    }

    /// Magic, version and every field before the searcher section.
    fn header_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        self.seed.encode(&mut out);
        self.gamma.encode(&mut out);
        self.ladder.encode(&mut out);
        out.push(self.granularity_code);
        out.push(self.regime_code);
        self.targets.encode(&mut out);
        (self.next_step as u64).encode(&mut out);
        (self.epoch as u64).encode(&mut out);
        self.baseline_accuracy.encode(&mut out);
        self.last_accuracy.encode(&mut out);
        self.lr.encode(&mut out);
        self.base_lr.encode(&mut out);
        for s in &self.rng {
            s.encode(&mut out);
        }
        self.plateau.0.encode(&mut out);
        (self.plateau.1 as u64).encode(&mut out);
        self.plateau.2.map(|k| k as u64).encode(&mut out);
        out
    }

    /// Every field after the searcher section.
    fn tail_bytes(&self, out: &mut Vec<u8>) {
        self.velocities.encode(out);
        put_blob(out, &self.ckpt.to_bytes());
        self.trace.encode(out);
        self.steps.encode(out);
    }

    /// Deserializes from the binary run-state format.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CcqError::CheckpointIo`] on a truncated or malformed
    /// buffer, a bad magic, or an unsupported version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let r = &mut Reader::new(bytes, "run state");
        let version = r.header(MAGIC, 1..=VERSION)?;
        let seed = r.u64()?;
        let gamma = r.f32()?;
        let ladder = Decode::decode(r)?;
        let granularity_code = r.u8()?;
        let regime_code = r.u8()?;
        let targets = Decode::decode(r)?;
        let next_step = r.u64()? as usize;
        let epoch = r.u64()? as usize;
        let baseline_accuracy = r.f32()?;
        let last_accuracy = r.f32()?;
        let lr = r.f32()?;
        let base_lr = r.f32()?;
        let rng = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        let plateau = (
            r.f32()?,
            r.u64()? as usize,
            Option::<u64>::decode(r)?.map(|k| k as usize),
        );
        let (searcher, rollbacks) = if version == 1 {
            // v1 predates the searcher abstraction: a bare π vector, no
            // rollback counter. Only the Hedge searcher existed, so the
            // mapping is lossless and resume stays byte-identical.
            let pi = Decode::decode(r)?;
            (SearcherState::Hedge { pi }, 0)
        } else {
            (SearcherState::decode(r)?, r.u64()?)
        };
        let velocities = Decode::decode(r)?;
        let ckpt = Checkpoint::from_bytes(r.blob()?)
            .map_err(|e| CodecError::Invalid(format!("embedded checkpoint: {e}")))?;
        Ok(RunState {
            seed,
            gamma,
            ladder,
            granularity_code,
            regime_code,
            targets,
            next_step,
            epoch,
            baseline_accuracy,
            last_accuracy,
            lr,
            base_lr,
            rng,
            plateau,
            searcher,
            rollbacks,
            velocities,
            ckpt,
            trace: Decode::decode(r)?,
            steps: Decode::decode(r)?,
        })
    }

    /// Writes the state to `path` through [`codec::write_atomic`],
    /// rotating an existing current file to `<path>.prev` so the last
    /// good generation survives a torn write.
    ///
    /// `fail_dir_sync` is a fault hook (normally `false`): the
    /// post-rename directory fsync reports a failure after the rename
    /// lands, exactly like a real barrier failure.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CcqError::CheckpointIo`] on any filesystem failure,
    /// including a failed directory fsync (the renamed file is in place
    /// but not yet durable — callers retry the whole write).
    pub fn write_atomic(&self, path: &Path, fail_dir_sync: bool) -> Result<()> {
        Ok(codec::write_atomic(
            path,
            &self.to_bytes(),
            true,
            fail_dir_sync,
        )?)
    }

    /// Loads the state from `path`, falling back to the retained
    /// `<path>.prev` generation when the current file is missing,
    /// truncated, or corrupt.
    ///
    /// # Errors
    ///
    /// Returns the current file's [`crate::CcqError::CheckpointIo`] when neither
    /// generation loads.
    pub fn load_with_fallback(path: &Path) -> Result<Self> {
        codec::load_with_fallback(path, false, Self::from_bytes)
    }

    /// Loads the state from exactly `path` (no fallback).
    ///
    /// # Errors
    ///
    /// Returns [`crate::CcqError::CheckpointIo`] on a read failure or malformed
    /// contents.
    pub fn load(path: &Path) -> Result<Self> {
        Self::from_bytes(&codec::read(path)?)
    }
}

/// Epoch (`u64`), accuracy, LR, then the tagged event.
impl Encode for TracePoint {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.epoch as u64).encode(out);
        self.val_accuracy.encode(out);
        self.lr.encode(out);
        self.event.encode(out);
    }
}

impl Decode for TracePoint {
    const MIN_BYTES: usize = 17;

    fn decode(r: &mut Reader<'_>) -> Decoded<Self> {
        Ok(TracePoint {
            epoch: r.u64()? as usize,
            val_accuracy: r.f32()?,
            lr: r.f32()?,
            event: TraceEvent::decode(r)?,
        })
    }
}

/// The fields in declaration order; `step` and `recovery_epochs` are
/// `u64`.
impl Encode for StepRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.step as u64).encode(out);
        self.layer.encode(out);
        self.kind.encode(out);
        self.label.encode(out);
        self.from_bits.encode(out);
        self.to_bits.encode(out);
        self.accuracy_before.encode(out);
        self.accuracy_after_quant.encode(out);
        self.accuracy_after_recovery.encode(out);
        (self.recovery_epochs as u64).encode(out);
        self.compression.encode(out);
        self.lambda.encode(out);
    }
}

impl Decode for StepRecord {
    const MIN_BYTES: usize = 57;

    fn decode(r: &mut Reader<'_>) -> Decoded<Self> {
        Ok(StepRecord {
            step: r.u64()? as usize,
            layer: Decode::decode(r)?,
            kind: Decode::decode(r)?,
            label: Decode::decode(r)?,
            from_bits: Decode::decode(r)?,
            to_bits: Decode::decode(r)?,
            accuracy_before: r.f32()?,
            accuracy_after_quant: r.f32()?,
            accuracy_after_recovery: r.f32()?,
            recovery_epochs: r.u64()? as usize,
            compression: r.f64()?,
            lambda: r.f32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CcqError;
    use ccq_models::mlp;
    use ccq_quant::{BitWidth, PolicyKind};

    fn sample() -> RunState {
        let mut net = mlp(&[4, 8, 2], PolicyKind::Pact, 0);
        RunState {
            seed: 7,
            gamma: 0.5,
            ladder: vec![8, 4, 2],
            granularity_code: 0,
            regime_code: 0,
            targets: Some(vec![32, 4]),
            next_step: 3,
            epoch: 11,
            baseline_accuracy: 0.91,
            last_accuracy: 0.88,
            lr: 0.01,
            base_lr: 0.02,
            rng: [1, 2, 3, 4],
            plateau: (0.9, 1, Some(2)),
            searcher: SearcherState::Hedge { pi: vec![1.0, 0.5] },
            rollbacks: 2,
            velocities: crate::guard::capture_velocities(&mut net),
            ckpt: Checkpoint::capture(&mut net),
            trace: vec![
                TracePoint {
                    epoch: 0,
                    val_accuracy: 0.91,
                    lr: 0.02,
                    event: TraceEvent::Baseline,
                },
                TracePoint {
                    epoch: 1,
                    val_accuracy: 0.85,
                    lr: 0.02,
                    event: TraceEvent::QuantStep {
                        layer: 1,
                        to_bits: BitWidth::of(4),
                    },
                },
            ],
            steps: vec![StepRecord {
                step: 1,
                layer: 1,
                kind: ExpertKind::Layer,
                label: "fc1".into(),
                from_bits: BitWidth::of(8),
                to_bits: BitWidth::of(4),
                accuracy_before: 0.9,
                accuracy_after_quant: 0.85,
                accuracy_after_recovery: 0.89,
                recovery_epochs: 4,
                compression: 7.5,
                lambda: 0.3,
            }],
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let s = sample();
        let restored = RunState::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(restored, s);
    }

    #[test]
    fn every_searcher_state_round_trips() {
        let states = [
            SearcherState::Hedge {
                pi: vec![1.0, 0.25, 1e-30],
            },
            SearcherState::ZeroBit { pi: vec![0.5, 1.0] },
            SearcherState::ReleqRl {
                theta: vec![0.1, -0.2, 0.3, 0.0, 1.5, -9.0],
                baseline: -0.73,
                updates: 41,
            },
            SearcherState::OneShot {
                order: vec![2, 0, 1],
                sensitivities: vec![0.3, 0.9, 0.1],
            },
            // Pristine states (pre-first-competition autosaves).
            SearcherState::ReleqRl {
                theta: vec![],
                baseline: 0.0,
                updates: 0,
            },
            SearcherState::OneShot {
                order: vec![],
                sensitivities: vec![],
            },
        ];
        for state in states {
            let mut s = sample();
            s.searcher = state.clone();
            s.rollbacks = 7;
            let restored = RunState::from_bytes(&s.to_bytes()).unwrap();
            assert_eq!(restored.searcher, state);
            assert_eq!(restored.rollbacks, 7);
            assert_eq!(restored, s);
        }
    }

    #[test]
    fn zero_bit_widths_survive_the_round_trip() {
        let mut s = sample();
        s.searcher = SearcherState::ZeroBit { pi: vec![1.0, 1.0] };
        s.steps[0].to_bits = BitWidth::ZERO;
        s.trace[1].event = TraceEvent::QuantStep {
            layer: 1,
            to_bits: BitWidth::ZERO,
        };
        let restored = RunState::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(restored, s);
        assert!(restored.steps[0].to_bits.is_pruned());
    }

    #[test]
    fn legacy_v1_files_load_as_hedge_state() {
        let s = sample(); // sample() uses Hedge π = [1.0, 0.5], rollbacks = 2
        let v1 = s.to_legacy_v1_bytes();
        let restored = RunState::from_bytes(&v1).unwrap();
        assert_eq!(
            restored.searcher,
            SearcherState::Hedge { pi: vec![1.0, 0.5] }
        );
        assert_eq!(restored.rollbacks, 0, "v1 predates the rollback counter");
        // Everything else is identical to the v2 reading of the same run.
        let mut expect = s.clone();
        expect.rollbacks = 0;
        assert_eq!(restored, expect);
        // Truncated v1 prefixes are still rejected at every length.
        for keep in 0..v1.len() {
            assert!(RunState::from_bytes(&v1[..keep]).is_err());
        }
    }

    #[test]
    fn rejects_bad_magic_wrong_version_and_truncation() {
        let mut bytes = sample().to_bytes();
        assert!(matches!(
            RunState::from_bytes(b"NOTRUNS!"),
            Err(CcqError::CheckpointIo(_))
        ));
        for keep in 0..bytes.len() {
            assert!(
                RunState::from_bytes(&bytes[..keep]).is_err(),
                "prefix of {keep} bytes must not parse"
            );
        }
        bytes[7] = 99;
        match RunState::from_bytes(&bytes).unwrap_err() {
            CcqError::CheckpointIo(msg) => assert!(msg.contains("version 99"), "{msg}"),
            other => panic!("expected CheckpointIo, got {other:?}"),
        }
    }
}
