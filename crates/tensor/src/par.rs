//! Parallel dispatch helpers shared by the kernels in [`crate::ops`].
//!
//! With the on-by-default `parallel` cargo feature, kernels split their
//! output into contiguous chunks and run them on rayon workers; without
//! it they compile to plain sequential loops. Both paths funnel through
//! the same per-chunk microkernels, and chunking never reorders the
//! per-element accumulation sequence, so results are **bit-identical**
//! between the serial build, the parallel build, and any thread count.

/// Number of worker threads parallel kernels may use (1 when the
/// `parallel` feature is disabled). Controlled at runtime by
/// `RAYON_NUM_THREADS` or an enclosing [`with_threads`].
#[cfg(feature = "parallel")]
pub fn num_threads() -> usize {
    rayon::current_num_threads()
}

/// Number of worker threads parallel kernels may use (1 when the
/// `parallel` feature is disabled).
#[cfg(not(feature = "parallel"))]
pub fn num_threads() -> usize {
    1
}

/// Runs `f` with the parallel work it starts on this thread — kernels,
/// evaluation, competition probes — limited to `n` threads (min 1).
/// This is the workspace's one pool constructor: serial sections pin
/// nested kernels with `with_threads(1, …)`, and the serve daemon gives
/// each worker its share of the CPUs. Results are bit-identical at
/// every `n`; only scheduling changes.
#[cfg(feature = "parallel")]
pub fn with_threads<R: Send>(n: usize, f: impl FnOnce() -> R + Send) -> R {
    match rayon::ThreadPoolBuilder::new()
        .num_threads(n.max(1))
        .build()
    {
        Ok(pool) => pool.install(f),
        // Unpinned execution computes the same bits, just on more threads.
        Err(_) => f(),
    }
}

/// Runs `f` (no `parallel` feature: everything is already serial).
#[cfg(not(feature = "parallel"))]
pub fn with_threads<R>(_n: usize, f: impl FnOnce() -> R) -> R {
    f()
}

/// Runs `f(chunk_index, chunk)` over consecutive `chunk_len`-sized
/// chunks of `data` — in parallel when the `parallel` feature is on and
/// more than one chunk exists, sequentially otherwise. Chunk indices
/// match `data.chunks_mut(chunk_len).enumerate()` exactly.
#[cfg(feature = "parallel")]
pub(crate) fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync + Send + Clone,
{
    use rayon::prelude::*;
    if chunk_len == 0 || data.is_empty() {
        return;
    }
    if data.len() <= chunk_len || rayon::current_num_threads() <= 1 {
        for (i, c) in data.chunks_mut(chunk_len).enumerate() {
            f(i, c);
        }
        return;
    }
    data.par_chunks_mut(chunk_len)
        .enumerate()
        .for_each(|(i, c)| f(i, c));
}

/// Sequential fallback of [`for_each_chunk_mut`] (no `parallel` feature).
#[cfg(not(feature = "parallel"))]
pub(crate) fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    F: Fn(usize, &mut [T]),
{
    if chunk_len == 0 || data.is_empty() {
        return;
    }
    for (i, c) in data.chunks_mut(chunk_len).enumerate() {
        f(i, c);
    }
}
