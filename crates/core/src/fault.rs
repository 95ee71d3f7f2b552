//! Deterministic fault injection.
//!
//! A [`FaultPlan`] declares, up front, exactly which faults fire and
//! when: NaN gradients at chosen (step, epoch) coordinates, and a number
//! of checkpoint writes that fail before one succeeds. Every fault is
//! consumed exactly once, so a guarded retry of the same coordinates runs
//! clean — which is precisely what the rollback/retry integration tests
//! need to prove recovery. File-corruption helpers for torn-write tests
//! ride along.
//!
//! The plan uses interior mutability (`Cell`/`RefCell`) because the
//! runner consults it from within hook closures while the run borrows
//! the runner.

use ccq_nn::Network;
use std::cell::{Cell, RefCell};
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// A deterministic schedule of faults to inject into a CCQ run.
///
/// # Example
///
/// ```
/// use ccq::FaultPlan;
///
/// // NaN gradients in step 2's first recovery epoch; the first two
/// // run-state writes fail before the third succeeds.
/// let plan = FaultPlan::new().nan_grad_at(2, 0).fail_writes(2);
/// assert!(plan.take_write_failure());
/// assert!(plan.take_write_failure());
/// assert!(!plan.take_write_failure());
/// assert!(plan.take_nan_grad(2, 0));
/// assert!(!plan.take_nan_grad(2, 0), "each fault fires once");
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Pending (quantization step, recovery epoch) NaN injections. Step 0
    /// is the initial post-ladder-top collaboration; quantization steps
    /// are 1-based, matching [`crate::StepRecord::step`].
    nan_grads: RefCell<Vec<(usize, usize)>>,
    /// Run-state writes left to fail.
    write_failures: Cell<usize>,
    /// Run-state/checkpoint reads left to fail at the I/O layer.
    read_failures: Cell<usize>,
    /// Run-state/checkpoint reads left to silently corrupt.
    read_corruptions: Cell<usize>,
    /// Parent-directory fsyncs (post-rename durability barriers) left to
    /// fail.
    dir_sync_failures: Cell<usize>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules a NaN-gradient injection right before recovery epoch
    /// `epoch` (0-based) of quantization step `step` trains (builder
    /// style).
    pub fn nan_grad_at(self, step: usize, epoch: usize) -> Self {
        self.nan_grads.borrow_mut().push((step, epoch));
        self
    }

    /// Makes the next `n` run-state writes fail before one succeeds
    /// (builder style).
    pub fn fail_writes(self, n: usize) -> Self {
        self.write_failures.set(self.write_failures.get() + n);
        self
    }

    /// Whether a NaN injection is scheduled for these coordinates;
    /// consumes it so the same coordinates run clean on retry.
    pub fn take_nan_grad(&self, step: usize, epoch: usize) -> bool {
        let mut pending = self.nan_grads.borrow_mut();
        match pending.iter().position(|&c| c == (step, epoch)) {
            Some(i) => {
                pending.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Makes the next `n` run-state/checkpoint reads fail at the I/O
    /// layer before one succeeds (builder style).
    pub fn fail_reads(self, n: usize) -> Self {
        self.read_failures.set(self.read_failures.get() + n);
        self
    }

    /// Makes the next `n` run-state/checkpoint reads observe silently
    /// corrupted bytes (builder style). The consumer XORs one mid-file
    /// byte before parsing, modeling bit rot the format's magic/length
    /// checks must catch.
    pub fn corrupt_reads(self, n: usize) -> Self {
        self.read_corruptions.set(self.read_corruptions.get() + n);
        self
    }

    /// Makes the next `n` post-rename parent-directory fsyncs fail
    /// (builder style). The rename itself lands — only the durability
    /// barrier reports failure, so a retry re-rotates the same bytes.
    pub fn fail_dir_syncs(self, n: usize) -> Self {
        self.dir_sync_failures.set(self.dir_sync_failures.get() + n);
        self
    }

    /// Whether the next write should fail; consumes one failure.
    pub fn take_write_failure(&self) -> bool {
        take_one(&self.write_failures)
    }

    /// Whether the next read should fail; consumes one failure.
    pub fn take_read_failure(&self) -> bool {
        take_one(&self.read_failures)
    }

    /// Whether the next read should see corrupted bytes; consumes one.
    pub fn take_read_corruption(&self) -> bool {
        take_one(&self.read_corruptions)
    }

    /// Whether the next parent-directory fsync should fail; consumes one.
    pub fn take_dir_sync_failure(&self) -> bool {
        take_one(&self.dir_sync_failures)
    }

    /// Whether any fault is still pending.
    pub fn exhausted(&self) -> bool {
        self.nan_grads.borrow().is_empty()
            && self.write_failures.get() == 0
            && self.read_failures.get() == 0
            && self.read_corruptions.get() == 0
            && self.dir_sync_failures.get() == 0
    }
}

/// Decrements a one-shot fault counter, reporting whether it fired.
fn take_one(cell: &Cell<usize>) -> bool {
    let left = cell.get();
    if left > 0 {
        cell.set(left - 1);
        true
    } else {
        false
    }
}

/// Poisons the network the way an overflowed backward pass would: a NaN
/// lands in the classifier head (the last parameter in visit order), so
/// it reaches the logits directly and cannot be masked by a ReLU.
pub fn inject_nan(net: &mut Network) {
    let mut count = 0;
    net.visit_params(&mut |_| count += 1);
    let mut i = 0;
    net.visit_params(&mut |p| {
        if i + 1 == count {
            p.value.as_mut_slice()[0] = f32::NAN;
        }
        i += 1;
    });
}

/// Truncates a file to `keep` bytes — a simulated torn write.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn truncate_file(path: &Path, keep: u64) -> std::io::Result<()> {
    OpenOptions::new().write(true).open(path)?.set_len(keep)
}

/// XORs the byte at `offset` with `mask` — simulated silent corruption.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn corrupt_byte(path: &Path, offset: u64, mask: u8) -> std::io::Result<()> {
    let mut f = OpenOptions::new().read(true).write(true).open(path)?;
    f.seek(SeekFrom::Start(offset))?;
    let mut b = [0u8; 1];
    f.read_exact(&mut b)?;
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(&[b[0] ^ mask])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccq_models::mlp;
    use ccq_quant::PolicyKind;

    #[test]
    fn faults_fire_exactly_once() {
        let plan = FaultPlan::new()
            .nan_grad_at(1, 0)
            .nan_grad_at(1, 0)
            .fail_writes(1);
        assert!(!plan.exhausted());
        assert!(!plan.take_nan_grad(0, 0), "unscheduled coordinates");
        assert!(plan.take_nan_grad(1, 0));
        assert!(plan.take_nan_grad(1, 0), "scheduled twice fires twice");
        assert!(!plan.take_nan_grad(1, 0));
        assert!(plan.take_write_failure());
        assert!(!plan.take_write_failure());
        assert!(plan.exhausted());
    }

    #[test]
    fn read_and_dir_sync_faults_fire_exactly_once() {
        let plan = FaultPlan::new()
            .fail_reads(1)
            .corrupt_reads(2)
            .fail_dir_syncs(1);
        assert!(!plan.exhausted());
        assert!(plan.take_read_failure());
        assert!(!plan.take_read_failure());
        assert!(plan.take_read_corruption());
        assert!(plan.take_read_corruption());
        assert!(!plan.take_read_corruption());
        assert!(plan.take_dir_sync_failure());
        assert!(!plan.take_dir_sync_failure());
        assert!(plan.exhausted());
    }

    #[test]
    fn inject_nan_is_detected_by_the_sentinel() {
        let mut net = mlp(&[4, 8, 2], PolicyKind::Pact, 0);
        assert!(net.all_finite());
        inject_nan(&mut net);
        assert!(!net.all_finite());
    }

    #[test]
    fn file_corruption_helpers_mutate_in_place() {
        let dir = std::env::temp_dir().join("ccq_fault_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("victim.bin");
        std::fs::write(&path, [0u8, 1, 2, 3, 4, 5]).unwrap();
        truncate_file(&path, 3).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), vec![0, 1, 2]);
        corrupt_byte(&path, 1, 0xFF).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), vec![0, 0xFE, 2]);
        let _ = std::fs::remove_file(&path);
    }
}
