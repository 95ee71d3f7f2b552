//! The workspace's one threading module: the kernels in [`crate::ops`],
//! batched evaluation and competition probing all split their work here.
//!
//! Work is cut into contiguous, order-preserving pieces. Piece 0 runs on
//! the calling thread and the rest on `std::thread::scope` threads, and
//! every piece runs pinned to one thread, so nested calls stay serial.
//! Splitting is purely structural and never reorders the per-element
//! accumulation sequence, so results are **bit-identical** at every
//! thread count, `RAYON_NUM_THREADS=1` included.

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// The innermost [`with_threads`] count on this thread, if any.
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The process-wide default thread count, resolved on first use.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

/// Number of threads parallel work started on this thread may use: the
/// innermost [`with_threads`] count (1 inside a [`map_pieces`] piece),
/// otherwise the process default. The default is `RAYON_NUM_THREADS`
/// when it parses as a positive integer, otherwise the detected CPU
/// count; it is read once, at the first call that needs it, and later
/// changes to the environment do not move it.
pub fn num_threads() -> usize {
    OVERRIDE.with(Cell::get).unwrap_or_else(|| {
        *DEFAULT_THREADS
            .get_or_init(|| threads_from_env(std::env::var("RAYON_NUM_THREADS").ok().as_deref()))
    })
}

/// Parses a `RAYON_NUM_THREADS` value (trimmed, must be > 0), falling
/// back to the detected CPU count when it is absent or unusable.
fn threads_from_env(var: Option<&str>) -> usize {
    var.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Runs `f` with the parallel work it starts on this thread — kernels,
/// evaluation, competition probes — limited to `n` threads (min 1), and
/// restores the previous count on exit, even on panic. Serial sections
/// pin nested kernels with `with_threads(1, …)`, and the serve daemon
/// gives each worker its share of the CPUs. Results are bit-identical at
/// every `n`; only scheduling changes.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(Some(n.max(1)))));
    f()
}

/// Runs `f(index, piece)` over `pieces` and returns the results in piece
/// order. Piece 0 runs on the calling thread and every other piece on
/// its own scoped thread; under [`num_threads`]` == 1` all of them run
/// in order on the caller. Each piece sees `num_threads() == 1`, so the
/// kernels it calls stay serial. Callers size `pieces` from
/// [`num_threads`]. A panicking piece propagates once all pieces have
/// finished.
pub fn map_pieces<P, R, F>(pieces: Vec<P>, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(usize, P) -> R + Sync,
{
    if pieces.len() <= 1 || num_threads() <= 1 {
        return with_threads(1, || {
            pieces
                .into_iter()
                .enumerate()
                .map(|(i, p)| f(i, p))
                .collect()
        });
    }
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(pieces.len()).collect();
    let f = &f;
    std::thread::scope(|s| {
        let mut work = pieces.into_iter().zip(slots.iter_mut()).enumerate();
        let first = work.next();
        for (i, (piece, slot)) in work {
            s.spawn(move || *slot = Some(with_threads(1, || f(i, piece))));
        }
        if let Some((i, (piece, slot))) = first {
            *slot = Some(with_threads(1, || f(i, piece)));
        }
    });
    // `thread::scope` re-raises any piece's panic, so every slot is full.
    slots.into_iter().flatten().collect()
}

/// Runs `f(chunk_index, chunk)` over consecutive `chunk_len`-sized
/// chunks of `data`, with indices matching
/// `data.chunks_mut(chunk_len).enumerate()` exactly. The chunks are
/// grouped into at most [`num_threads`] contiguous pieces of near-equal
/// chunk count (the first pieces one longer), run by [`map_pieces`].
pub(crate) fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if chunk_len == 0 || data.is_empty() {
        return;
    }
    let chunks = data.len().div_ceil(chunk_len);
    let threads = num_threads().min(chunks);
    if threads <= 1 {
        for (i, c) in data.chunks_mut(chunk_len).enumerate() {
            f(i, c);
        }
        return;
    }
    let (base, rem) = (chunks / threads, chunks % threads);
    let mut pieces = Vec::with_capacity(threads);
    let (mut rest, mut first) = (data, 0);
    for p in 0..threads {
        let take = base + usize::from(p < rem);
        let (head, tail) = rest.split_at_mut((take * chunk_len).min(rest.len()));
        pieces.push((first, head));
        rest = tail;
        first += take;
    }
    map_pieces(pieces, |_, (first, piece)| {
        for (j, c) in piece.chunks_mut(chunk_len).enumerate() {
            f(first + j, c);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn with_threads_scopes_and_restores_the_count() {
        let outer = num_threads();
        with_threads(3, || {
            assert_eq!(num_threads(), 3);
            with_threads(2, || assert_eq!(num_threads(), 2));
            assert_eq!(num_threads(), 3);
        });
        assert_eq!(num_threads(), outer);
        assert_eq!(with_threads(0, num_threads), 1, "n is clamped to 1");
        let unwound = std::panic::catch_unwind(|| with_threads(5, || panic!("piece failed")));
        assert!(unwound.is_err());
        assert_eq!(num_threads(), outer, "a panic must not leak the override");
    }

    #[test]
    fn default_thread_count_is_resolved_once() {
        let first = num_threads();
        let saved = std::env::var_os("RAYON_NUM_THREADS");
        std::env::set_var("RAYON_NUM_THREADS", (first + 3).to_string());
        let later = num_threads();
        match saved {
            Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
        assert_eq!(later, first, "the default moved with the environment");
        assert_eq!(with_threads(first + 3, num_threads), first + 3);
    }

    #[test]
    fn unusable_env_values_fall_back_to_the_cpu_count() {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        for bad in [
            None,
            Some("0"),
            Some(""),
            Some("four"),
            Some("-2"),
            Some("2.5"),
        ] {
            assert_eq!(threads_from_env(bad), cpus, "{bad:?}");
        }
        assert_eq!(threads_from_env(Some(" 3\n")), 3);
        assert_eq!(threads_from_env(Some("1")), 1);
    }

    #[test]
    fn every_piece_sees_one_thread_and_piece_zero_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let seen = with_threads(4, || {
            map_pieces(vec![(); 4], |_, ()| {
                (num_threads(), std::thread::current().id())
            })
        });
        assert!(seen.iter().all(|&(n, _)| n == 1), "{seen:?}");
        assert_eq!(seen[0].1, caller);
        assert!(seen[1..].iter().all(|&(_, id)| id != caller));
        assert_eq!(
            with_threads(4, num_threads),
            4,
            "the caller's count is restored"
        );

        let mut nested = vec![0usize; 8];
        with_threads(4, || {
            for_each_chunk_mut(&mut nested, 1, |_, c| c[0] = num_threads())
        });
        assert_eq!(nested, vec![1; 8]);
    }

    #[test]
    fn map_pieces_joins_every_piece_in_order() {
        let mut written = vec![0usize; 6];
        let pieces: Vec<(usize, &mut usize)> = written.iter_mut().enumerate().collect();
        let out = with_threads(6, || {
            map_pieces(pieces, |i, (j, slot)| {
                *slot = j + 1;
                i * 10
            })
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
        assert_eq!(written, vec![1, 2, 3, 4, 5, 6]);
        let serial = with_threads(1, || map_pieces(vec![3, 4], |i, p| i + p));
        assert_eq!(serial, vec![3, 5]);
    }

    #[test]
    fn a_panicking_piece_propagates_after_the_join() {
        let unwound = std::panic::catch_unwind(|| {
            with_threads(3, || {
                map_pieces(vec![0, 1, 2], |_, p| {
                    if p == 2 {
                        panic!("piece 2 failed");
                    }
                    p
                })
            })
        });
        assert!(unwound.is_err());
    }

    #[test]
    fn chunk_writes_are_disjoint() {
        let mut v = vec![0u32; 103];
        with_threads(4, || {
            for_each_chunk_mut(&mut v, 10, |ci, chunk| {
                for (j, x) in chunk.iter_mut().enumerate() {
                    *x = (ci * 10 + j) as u32;
                }
            });
        });
        assert_eq!(v, (0..103).collect::<Vec<u32>>());
    }

    /// Tags every element with its chunk index, offset and chunk length.
    fn tag(ci: usize, chunk: &mut [u64]) {
        let len = chunk.len() as u64;
        for (j, x) in chunk.iter_mut().enumerate() {
            *x = ((ci as u64) << 32) | ((j as u64) << 16) | len;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// At 1–8 threads the chunk runner writes exactly what a serial
        /// `chunks_mut().enumerate()` walk writes; a zero chunk length or
        /// empty data writes nothing.
        #[test]
        fn for_each_chunk_mut_matches_chunks_mut(
            len in 0usize..200,
            chunk_len in 0usize..24,
            threads in 1usize..9,
        ) {
            let mut expect = vec![u64::MAX; len];
            if chunk_len > 0 {
                for (ci, c) in expect.chunks_mut(chunk_len).enumerate() {
                    tag(ci, c);
                }
            }
            let mut got = vec![u64::MAX; len];
            with_threads(threads, || for_each_chunk_mut(&mut got, chunk_len, tag));
            prop_assert_eq!(got, expect);
        }
    }
}
