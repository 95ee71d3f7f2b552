//! Per-thread working memory of the packed forward.
//!
//! A packed forward reuses the same few buffers call after call: the
//! integer convolution's patch matrix and accumulator row, the
//! activation codes of the layer input, and the `f32` buffers that carry
//! activations from layer to layer. The last form a small free list:
//! integer convolutions write their output into a buffer taken from it,
//! and [`Layer::forward_packed_owned`](crate::Layer::forward_packed_owned)
//! hands every activation it consumes back to it. In steady state a
//! packed forward therefore allocates no large buffer, and the memory it
//! writes is not returned to the operating system after each call only
//! to be faulted back in on the next.

use ccq_tensor::ops::IntConvScratch;
use ccq_tensor::Tensor;
use std::cell::RefCell;

/// Buffers the free list keeps. A packed block holds at most three
/// activations at once (its input, the main path and the convolution
/// output being written, or the projection shortcut), so three buffers
/// serve a whole forward. A small activation that a layer without an
/// integer path allocates itself (the pooling head's) is the smallest
/// when it comes back, and is the one dropped.
const FREE_BUFFERS: usize = 3;

/// The working memory one thread's packed forwards share.
#[derive(Debug, Default)]
pub(crate) struct PackedScratch {
    /// Patch matrix and accumulator row of `int_conv2d`.
    pub(crate) conv: IntConvScratch,
    /// Activation codes of the current layer input.
    pub(crate) codes: Vec<i16>,
    /// Buffers of consumed activations, ready for the next output.
    free: Vec<Vec<f32>>,
}

impl PackedScratch {
    /// A buffer for an output of `len` values, holding anything: the
    /// smallest kept buffer with room for `len`, else the largest one,
    /// which its user grows, else a new one.
    pub(crate) fn take_buffer(&mut self, len: usize) -> Vec<f32> {
        let by_size = self.free.iter().map(Vec::capacity).enumerate();
        let fit = by_size
            .clone()
            .filter(|&(_, cap)| cap >= len)
            .min_by_key(|&(_, cap)| cap);
        match fit.or_else(|| by_size.max_by_key(|&(_, cap)| cap)) {
            Some((i, _)) => self.free.swap_remove(i),
            None => Vec::new(),
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<PackedScratch> = RefCell::default();
}

/// Runs `f` on this thread's packed-forward scratch. `f` must not run a
/// layer: the scratch is borrowed for the whole call.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut PackedScratch) -> R) -> R {
    SCRATCH.with_borrow_mut(f)
}

/// Hands the buffer of an activation the packed forward no longer needs
/// to this thread's free list. When the list is full, its smallest
/// buffer is dropped.
pub(crate) fn recycle(t: Tensor) {
    let buf = t.into_vec();
    with_scratch(|s| {
        s.free.push(buf);
        if s.free.len() > FREE_BUFFERS {
            let by_size = s.free.iter().map(Vec::capacity).enumerate();
            if let Some((i, _)) = by_size.min_by_key(|&(_, cap)| cap) {
                s.free.swap_remove(i);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_prefers_the_smallest_fitting_buffer_and_the_list_is_capped() {
        let mut s = PackedScratch::default();
        for cap in [8, 64, 16] {
            s.free.push(Vec::with_capacity(cap));
        }
        assert!(s.take_buffer(10).capacity() >= 16 && s.free.len() == 2);
        assert!(s.take_buffer(100).capacity() >= 64, "the largest is grown");
        assert!(s.take_buffer(1).capacity() >= 8);
        assert_eq!(s.take_buffer(1).capacity(), 0, "an empty list allocates");

        for cap in [5, 1, 9, 3, 7, 2] {
            recycle(Tensor::zeros(&[cap]));
        }
        let kept = with_scratch(|s| {
            let mut caps: Vec<usize> = s.free.iter().map(Vec::capacity).collect();
            caps.sort_unstable();
            caps
        });
        assert_eq!(kept, vec![5, 7, 9]);
    }
}
