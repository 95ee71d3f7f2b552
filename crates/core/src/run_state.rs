//! Crash-safe run state: everything needed to resume a CCQ descent
//! bit-for-bit from a step boundary.
//!
//! A [`RunState`] extends the network [`Checkpoint`] with the descent's
//! own mutable state — Hedge weights π, the RNG stream, SGD momentum, the
//! LR schedule, step/epoch counters, the recovery baseline, and the
//! learning curve so far. The on-disk format mirrors the checkpoint's
//! self-contained little-endian layout under its own magic (`CCQRUNS`).
//!
//! Writes are atomic: the state is written to a temporary file, fsynced,
//! and renamed over the destination, with the previous generation
//! retained as `<path>.prev`. [`RunState::load_with_fallback`] falls back
//! to the previous generation when the current file is torn or corrupt,
//! so a crash mid-write never loses the run.

use crate::event::{StepRecord, TraceEvent, TracePoint};
use crate::searcher::SearcherState;
use crate::{CcqError, ExpertKind, Result};
use ccq_nn::checkpoint::Checkpoint;
use ccq_quant::BitWidth;
use ccq_tensor::Tensor;
use std::fs;
use std::io::Write;
use std::path::Path;

const MAGIC: &[u8; 7] = b"CCQRUNS";
/// Current write version. Version 1 (pre-[`crate::Searcher`]) stored a
/// bare π vector where version 2 stores a tagged [`SearcherState`] plus
/// the rollback counter; v1 files still load, mapping π to Hedge state.
const VERSION: u8 = 2;

/// Tags of the searcher-state section (v2+).
const TAG_HEDGE: u8 = 0;
const TAG_ZERO_BIT: u8 = 1;
const TAG_RELEQ: u8 = 2;
const TAG_ONE_SHOT: u8 = 3;

/// A serializable snapshot of an in-flight CCQ run at a step boundary.
///
/// The first block of fields fingerprints the configuration; resume
/// refuses to continue under a different config
/// ([`CcqError::ResumeMismatch`]). The rest is the mutable descent state.
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
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        w_u64(&mut out, self.seed);
        w_f32(&mut out, self.gamma);
        w_u32(&mut out, self.ladder.len() as u32);
        for &b in &self.ladder {
            w_u32(&mut out, b);
        }
        out.push(self.granularity_code);
        out.push(self.regime_code);
        match &self.targets {
            None => out.push(0),
            Some(t) => {
                out.push(1);
                w_u32(&mut out, t.len() as u32);
                for &b in t {
                    w_u32(&mut out, b);
                }
            }
        }
        w_u64(&mut out, self.next_step as u64);
        w_u64(&mut out, self.epoch as u64);
        w_f32(&mut out, self.baseline_accuracy);
        w_f32(&mut out, self.last_accuracy);
        w_f32(&mut out, self.lr);
        w_f32(&mut out, self.base_lr);
        for &s in &self.rng {
            w_u64(&mut out, s);
        }
        w_f32(&mut out, self.plateau.0);
        w_u64(&mut out, self.plateau.1 as u64);
        match self.plateau.2 {
            None => out.push(0),
            Some(k) => {
                out.push(1);
                w_u64(&mut out, k as u64);
            }
        }
        match &self.searcher {
            SearcherState::Hedge { pi } => {
                out.push(TAG_HEDGE);
                w_f32_list(&mut out, pi);
            }
            SearcherState::ZeroBit { pi } => {
                out.push(TAG_ZERO_BIT);
                w_f32_list(&mut out, pi);
            }
            SearcherState::ReleqRl {
                theta,
                baseline,
                updates,
            } => {
                out.push(TAG_RELEQ);
                w_f32_list(&mut out, theta);
                w_f32(&mut out, *baseline);
                w_u64(&mut out, *updates);
            }
            SearcherState::OneShot {
                order,
                sensitivities,
            } => {
                out.push(TAG_ONE_SHOT);
                w_u32(&mut out, order.len() as u32);
                for &s in order {
                    w_u32(&mut out, s as u32);
                }
                w_f32_list(&mut out, sensitivities);
            }
        }
        w_u64(&mut out, self.rollbacks);
        w_u32(&mut out, self.velocities.len() as u32);
        for t in &self.velocities {
            w_u32(&mut out, t.rank() as u32);
            for &d in t.shape() {
                w_u32(&mut out, d as u32);
            }
            for &v in t.as_slice() {
                w_f32(&mut out, v);
            }
        }
        let ckpt = self.ckpt.to_bytes();
        w_u32(&mut out, ckpt.len() as u32);
        out.extend_from_slice(&ckpt);
        w_u32(&mut out, self.trace.len() as u32);
        for p in &self.trace {
            w_u64(&mut out, p.epoch as u64);
            w_f32(&mut out, p.val_accuracy);
            w_f32(&mut out, p.lr);
            match p.event {
                TraceEvent::Baseline => out.push(0),
                TraceEvent::InitQuantize => out.push(1),
                TraceEvent::QuantStep { layer, to_bits } => {
                    out.push(2);
                    w_u32(&mut out, layer as u32);
                    w_u32(&mut out, to_bits.bits());
                }
                TraceEvent::Recovery => out.push(3),
            }
        }
        w_u32(&mut out, self.steps.len() as u32);
        for s in &self.steps {
            w_u64(&mut out, s.step as u64);
            w_u32(&mut out, s.layer as u32);
            out.push(kind_code(s.kind));
            w_u32(&mut out, s.label.len() as u32);
            out.extend_from_slice(s.label.as_bytes());
            w_u32(&mut out, s.from_bits.bits());
            w_u32(&mut out, s.to_bits.bits());
            w_f32(&mut out, s.accuracy_before);
            w_f32(&mut out, s.accuracy_after_quant);
            w_f32(&mut out, s.accuracy_after_recovery);
            w_u64(&mut out, s.recovery_epochs as u64);
            out.extend_from_slice(&s.compression.to_le_bytes());
            w_f32(&mut out, s.lambda);
        }
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
        let v2 = self.to_bytes();
        // v2 = header..plateau | tag + π-section + rollbacks | tail.
        // Rebuild as   header..plateau | π-section | tail   with the
        // version byte set to 1. The searcher section starts right
        // after the plateau block, whose length is fixed given the
        // restart tag, so split the v2 bytes around it.
        let head_len = self.header_len();
        let sect_len = 1 + 4 + 4 * pi.len() + 8; // tag + len + f32s + rollbacks
        let mut out = Vec::new();
        out.extend_from_slice(&v2[..head_len]);
        out[7] = 1; // version byte
        w_u32(&mut out, pi.len() as u32);
        for &p in pi {
            w_f32(&mut out, p);
        }
        out.extend_from_slice(&v2[head_len + sect_len..]);
        out
    }

    /// Byte length of the serialized header through the plateau block
    /// (where the searcher section begins).
    fn header_len(&self) -> usize {
        7 + 1 // magic + version
            + 8 + 4 // seed + gamma
            + 4 + 4 * self.ladder.len() // ladder
            + 1 + 1 // granularity + regime
            + match &self.targets { None => 1, Some(t) => 1 + 4 + 4 * t.len() }
            + 8 + 8 // next_step + epoch
            + 4 + 4 + 4 + 4 // accuracies + lrs
            + 32 // rng
            + 4 + 8 + match self.plateau.2 { None => 1, Some(_) => 9 }
    }

    /// Deserializes from the binary run-state format.
    ///
    /// # Errors
    ///
    /// Returns [`CcqError::CheckpointIo`] on a truncated or malformed
    /// buffer, a bad magic, or an unsupported version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let cur = &mut &bytes[..];
        let mut magic = [0u8; 7];
        r_exact(cur, &mut magic)?;
        if &magic != MAGIC {
            return Err(malformed("not a CCQ run state (bad magic)"));
        }
        let version = r_u8(cur)?;
        if !(1..=VERSION).contains(&version) {
            return Err(malformed(&format!(
                "unsupported run-state version {version} (this build reads versions 1..={VERSION})"
            )));
        }
        let seed = r_u64(cur)?;
        let gamma = r_f32(cur)?;
        let n_rungs = r_u32(cur)? as usize;
        if n_rungs > 64 {
            return Err(malformed("implausible ladder length"));
        }
        let mut ladder = Vec::with_capacity(n_rungs);
        for _ in 0..n_rungs {
            ladder.push(r_u32(cur)?);
        }
        let granularity_code = r_u8(cur)?;
        let regime_code = r_u8(cur)?;
        let targets = match r_u8(cur)? {
            0 => None,
            1 => {
                let n = r_u32(cur)? as usize;
                if n > 1 << 20 {
                    return Err(malformed("implausible target count"));
                }
                let mut t = Vec::with_capacity(n);
                for _ in 0..n {
                    t.push(r_u32(cur)?);
                }
                Some(t)
            }
            other => return Err(malformed(&format!("bad targets tag {other}"))),
        };
        let next_step = r_u64(cur)? as usize;
        let epoch = r_u64(cur)? as usize;
        let baseline_accuracy = r_f32(cur)?;
        let last_accuracy = r_f32(cur)?;
        let lr = r_f32(cur)?;
        let base_lr = r_f32(cur)?;
        let mut rng = [0u64; 4];
        for s in &mut rng {
            *s = r_u64(cur)?;
        }
        let plateau_best = r_f32(cur)?;
        let plateau_since = r_u64(cur)? as usize;
        let plateau_restart = match r_u8(cur)? {
            0 => None,
            1 => Some(r_u64(cur)? as usize),
            other => return Err(malformed(&format!("bad restart tag {other}"))),
        };
        let (searcher, rollbacks) = if version == 1 {
            // v1 predates the searcher abstraction: a bare π vector, no
            // rollback counter. Only the Hedge searcher existed, so the
            // mapping is lossless and resume stays byte-identical.
            (
                SearcherState::Hedge {
                    pi: r_f32_list(cur)?,
                },
                0u64,
            )
        } else {
            let searcher = match r_u8(cur)? {
                TAG_HEDGE => SearcherState::Hedge {
                    pi: r_f32_list(cur)?,
                },
                TAG_ZERO_BIT => SearcherState::ZeroBit {
                    pi: r_f32_list(cur)?,
                },
                TAG_RELEQ => SearcherState::ReleqRl {
                    theta: r_f32_list(cur)?,
                    baseline: r_f32(cur)?,
                    updates: r_u64(cur)?,
                },
                TAG_ONE_SHOT => {
                    let n = r_u32(cur)? as usize;
                    if n > 1 << 20 {
                        return Err(malformed("implausible one-shot order length"));
                    }
                    let mut order = Vec::with_capacity(n);
                    for _ in 0..n {
                        order.push(r_u32(cur)? as usize);
                    }
                    SearcherState::OneShot {
                        order,
                        sensitivities: r_f32_list(cur)?,
                    }
                }
                other => return Err(malformed(&format!("bad searcher tag {other}"))),
            };
            (searcher, r_u64(cur)?)
        };
        let n_vel = r_u32(cur)? as usize;
        if n_vel > 1 << 20 {
            return Err(malformed("implausible velocity count"));
        }
        let mut velocities = Vec::with_capacity(n_vel);
        for _ in 0..n_vel {
            let rank = r_u32(cur)? as usize;
            if rank > 8 {
                return Err(malformed("implausible tensor rank"));
            }
            let mut dims = Vec::with_capacity(rank);
            for _ in 0..rank {
                dims.push(r_u32(cur)? as usize);
            }
            let numel = dims
                .iter()
                .try_fold(1usize, |acc, &d| acc.checked_mul(d))
                .filter(|&numel| numel <= 1 << 28)
                .ok_or_else(|| malformed("implausible tensor size"))?;
            let mut data = Vec::with_capacity(numel);
            for _ in 0..numel {
                data.push(r_f32(cur)?);
            }
            velocities.push(Tensor::from_vec(data, &dims).map_err(|e| malformed(&e.to_string()))?);
        }
        let ckpt_len = r_u32(cur)? as usize;
        if cur.len() < ckpt_len {
            return Err(malformed("truncated run state"));
        }
        let ckpt = Checkpoint::from_bytes(&cur[..ckpt_len])
            .map_err(|e| malformed(&format!("embedded checkpoint: {e}")))?;
        *cur = &cur[ckpt_len..];
        let n_trace = r_u32(cur)? as usize;
        if n_trace > 1 << 24 {
            return Err(malformed("implausible trace length"));
        }
        let mut trace = Vec::with_capacity(n_trace);
        for _ in 0..n_trace {
            let epoch = r_u64(cur)? as usize;
            let val_accuracy = r_f32(cur)?;
            let lr = r_f32(cur)?;
            let event = match r_u8(cur)? {
                0 => TraceEvent::Baseline,
                1 => TraceEvent::InitQuantize,
                2 => {
                    let layer = r_u32(cur)? as usize;
                    let to_bits = bitwidth(r_u32(cur)?)?;
                    TraceEvent::QuantStep { layer, to_bits }
                }
                3 => TraceEvent::Recovery,
                other => return Err(malformed(&format!("bad trace event tag {other}"))),
            };
            trace.push(TracePoint {
                epoch,
                val_accuracy,
                lr,
                event,
            });
        }
        let n_steps = r_u32(cur)? as usize;
        if n_steps > 1 << 24 {
            return Err(malformed("implausible step count"));
        }
        let mut steps = Vec::with_capacity(n_steps);
        for _ in 0..n_steps {
            let step = r_u64(cur)? as usize;
            let layer = r_u32(cur)? as usize;
            let kind = kind_from_code(r_u8(cur)?)?;
            let label_len = r_u32(cur)? as usize;
            if cur.len() < label_len || label_len > 1 << 16 {
                return Err(malformed("truncated run state"));
            }
            let label = String::from_utf8(cur[..label_len].to_vec())
                .map_err(|_| malformed("step label is not UTF-8"))?;
            *cur = &cur[label_len..];
            let from_bits = bitwidth(r_u32(cur)?)?;
            let to_bits = bitwidth(r_u32(cur)?)?;
            let accuracy_before = r_f32(cur)?;
            let accuracy_after_quant = r_f32(cur)?;
            let accuracy_after_recovery = r_f32(cur)?;
            let recovery_epochs = r_u64(cur)? as usize;
            let mut c = [0u8; 8];
            r_exact(cur, &mut c)?;
            let compression = f64::from_le_bytes(c);
            let lambda = r_f32(cur)?;
            steps.push(StepRecord {
                step,
                layer,
                kind,
                label,
                from_bits,
                to_bits,
                accuracy_before,
                accuracy_after_quant,
                accuracy_after_recovery,
                recovery_epochs,
                compression,
                lambda,
            });
        }
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
            plateau: (plateau_best, plateau_since, plateau_restart),
            searcher,
            rollbacks,
            velocities,
            ckpt,
            trace,
            steps,
        })
    }

    /// Atomically writes the state to `path`: the bytes go to
    /// `<path>.tmp`, are fsynced, and renamed into place; an existing
    /// current file is first rotated to `<path>.prev` so the last good
    /// generation survives a torn write. The parent directory is then
    /// fsynced so the renames themselves survive power loss.
    ///
    /// # Errors
    ///
    /// Returns [`CcqError::CheckpointIo`] on any filesystem failure,
    /// including a failed directory fsync (the renamed file is in place
    /// but not yet durable — callers retry the whole write).
    pub fn write_atomic(&self, path: &Path) -> Result<()> {
        self.write_atomic_inner(path, false)
    }

    /// [`RunState::write_atomic`] with a fault plan consulted at the
    /// post-rename directory-fsync barrier: an injected failure reports
    /// after the rename lands, exactly like a real barrier failure.
    ///
    /// # Errors
    ///
    /// Same contract as [`RunState::write_atomic`].
    #[cfg(feature = "fault-inject")]
    pub fn write_atomic_with_faults(
        &self,
        path: &Path,
        plan: Option<&crate::FaultPlan>,
    ) -> Result<()> {
        let inject = plan.is_some_and(|p| p.take_dir_sync_failure());
        self.write_atomic_inner(path, inject)
    }

    fn write_atomic_inner(&self, path: &Path, inject_dir_sync_failure: bool) -> Result<()> {
        let io = |e: std::io::Error, what: &str| {
            CcqError::CheckpointIo(format!("{what} {}: {e}", path.display()))
        };
        let tmp = sibling(path, ".tmp");
        let prev = sibling(path, ".prev");
        let mut f = fs::File::create(&tmp).map_err(|e| io(e, "create tmp for"))?;
        f.write_all(&self.to_bytes())
            .map_err(|e| io(e, "write tmp for"))?;
        f.sync_all().map_err(|e| io(e, "fsync tmp for"))?;
        drop(f);
        if path.exists() {
            fs::rename(path, &prev).map_err(|e| io(e, "rotate previous for"))?;
        }
        fs::rename(&tmp, path).map_err(|e| io(e, "rename into"))?;
        if inject_dir_sync_failure {
            return Err(CcqError::CheckpointIo(format!(
                "injected directory fsync failure for {}",
                path.display()
            )));
        }
        // Durability of the renames themselves: a rename that only lives
        // in the directory's page cache is lost on power failure. Opening
        // the directory is skipped silently where unsupported, but a
        // failed fsync on an opened directory is a real durability error.
        if let Some(dir) = path.parent() {
            if let Ok(d) = fs::File::open(dir) {
                d.sync_all().map_err(|e| io(e, "fsync parent dir of"))?;
            }
        }
        Ok(())
    }

    /// Loads the state from `path`, falling back to the retained
    /// `<path>.prev` generation when the current file is missing,
    /// truncated, or corrupt.
    ///
    /// # Errors
    ///
    /// Returns the current file's [`CcqError::CheckpointIo`] when neither
    /// generation loads.
    pub fn load_with_fallback(path: &Path) -> Result<Self> {
        let current = Self::load(path);
        match current {
            Ok(s) => Ok(s),
            Err(primary) => match Self::load(&sibling(path, ".prev")) {
                Ok(s) => Ok(s),
                Err(_) => Err(primary),
            },
        }
    }

    /// [`RunState::load_with_fallback`] with a fault plan consulted on
    /// the read path: an injected read failure surfaces as
    /// [`CcqError::CheckpointIo`] without touching the file; an injected
    /// read corruption XORs one mid-file byte in memory before parsing,
    /// so the format's integrity checks reject the primary generation and
    /// the loader falls back to `<path>.prev` exactly as with real bit
    /// rot.
    ///
    /// # Errors
    ///
    /// Same contract as [`RunState::load_with_fallback`], plus the
    /// injected failures.
    #[cfg(feature = "fault-inject")]
    pub fn load_with_fallback_faulted(
        path: &Path,
        plan: Option<&crate::FaultPlan>,
    ) -> Result<Self> {
        let Some(plan) = plan else {
            return Self::load_with_fallback(path);
        };
        if plan.take_read_failure() {
            return Err(CcqError::CheckpointIo(format!(
                "injected read failure for {}",
                path.display()
            )));
        }
        if plan.take_read_corruption() {
            return match Self::load_corrupted(path) {
                Ok(s) => Ok(s),
                Err(primary) => match Self::load(&sibling(path, ".prev")) {
                    Ok(s) => Ok(s),
                    Err(_) => Err(primary),
                },
            };
        }
        Self::load_with_fallback(path)
    }

    /// Loads `path` with one mid-file byte flipped in memory — the
    /// injected-corruption read path.
    #[cfg(feature = "fault-inject")]
    fn load_corrupted(path: &Path) -> Result<Self> {
        let mut bytes = fs::read(path)
            .map_err(|e| CcqError::CheckpointIo(format!("read {}: {e}", path.display())))?;
        if !bytes.is_empty() {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xA5;
        }
        Self::from_bytes(&bytes).map_err(|e| {
            CcqError::CheckpointIo(format!(
                "injected read corruption for {}: {e}",
                path.display()
            ))
        })
    }

    /// Loads the state from exactly `path` (no fallback).
    ///
    /// # Errors
    ///
    /// Returns [`CcqError::CheckpointIo`] on a read failure or malformed
    /// contents.
    pub fn load(path: &Path) -> Result<Self> {
        let bytes = fs::read(path)
            .map_err(|e| CcqError::CheckpointIo(format!("read {}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }
}

/// `<path><suffix>` alongside the original file.
fn sibling(path: &Path, suffix: &str) -> std::path::PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(suffix);
    std::path::PathBuf::from(s)
}

fn malformed(msg: &str) -> CcqError {
    CcqError::CheckpointIo(format!("malformed run state: {msg}"))
}

fn kind_code(k: ExpertKind) -> u8 {
    match k {
        ExpertKind::Layer => 0,
        ExpertKind::Weights => 1,
        ExpertKind::Activations => 2,
    }
}

fn kind_from_code(c: u8) -> Result<ExpertKind> {
    Ok(match c {
        0 => ExpertKind::Layer,
        1 => ExpertKind::Weights,
        2 => ExpertKind::Activations,
        other => return Err(malformed(&format!("unknown expert kind {other}"))),
    })
}

fn bitwidth(bits: u32) -> Result<BitWidth> {
    // Zero is a legal stored width: the zero-bit searcher quantizes
    // layers down to the pruning rung.
    BitWidth::new_allowing_zero(bits).map_err(|e| malformed(&e.to_string()))
}

fn w_f32_list(out: &mut Vec<u8>, vals: &[f32]) {
    w_u32(out, vals.len() as u32);
    for &v in vals {
        w_f32(out, v);
    }
}

fn r_f32_list(cur: &mut &[u8]) -> Result<Vec<f32>> {
    let n = r_u32(cur)? as usize;
    if n > 1 << 20 {
        return Err(malformed("implausible weight-vector length"));
    }
    let mut vals = Vec::with_capacity(n);
    for _ in 0..n {
        vals.push(r_f32(cur)?);
    }
    Ok(vals)
}

fn w_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn w_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn w_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn r_exact(cur: &mut &[u8], buf: &mut [u8]) -> Result<()> {
    if cur.len() < buf.len() {
        return Err(malformed("truncated run state"));
    }
    buf.copy_from_slice(&cur[..buf.len()]);
    *cur = &cur[buf.len()..];
    Ok(())
}

fn r_u8(cur: &mut &[u8]) -> Result<u8> {
    let mut b = [0u8; 1];
    r_exact(cur, &mut b)?;
    Ok(b[0])
}

fn r_u32(cur: &mut &[u8]) -> Result<u32> {
    let mut b = [0u8; 4];
    r_exact(cur, &mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn r_u64(cur: &mut &[u8]) -> Result<u64> {
    let mut b = [0u8; 8];
    r_exact(cur, &mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn r_f32(cur: &mut &[u8]) -> Result<f32> {
    let mut b = [0u8; 4];
    r_exact(cur, &mut b)?;
    Ok(f32::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccq_models::mlp;
    use ccq_quant::PolicyKind;

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

    #[test]
    fn atomic_write_retains_previous_generation() {
        let dir = std::env::temp_dir().join("ccq_run_state_test");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("state.ccqruns");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(sibling(&path, ".prev"));

        let a = sample();
        a.write_atomic(&path).unwrap();
        let mut b = a.clone();
        b.next_step = 4;
        b.write_atomic(&path).unwrap();

        assert_eq!(RunState::load(&path).unwrap().next_step, 4);
        assert_eq!(
            RunState::load(&sibling(&path, ".prev")).unwrap().next_step,
            3
        );

        // Corrupt the current generation: the loader falls back.
        fs::write(&path, b"torn write").unwrap();
        assert_eq!(RunState::load_with_fallback(&path).unwrap().next_step, 3);

        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(sibling(&path, ".prev"));
    }
}
