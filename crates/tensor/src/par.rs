//! The workspace's one threading module: batched evaluation and
//! competition probing split their work here. The kernels in
//! [`crate::ops`] never split; they run on their caller's thread.
//!
//! Work is cut into contiguous, order-preserving pieces. Piece 0 runs on
//! the calling thread and the rest on `std::thread::scope` threads, and
//! every piece runs pinned to one thread, so nested splits stay serial.
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

/// Runs `f` with the parallel work it starts on this thread — evaluation
/// and competition probes — limited to `n` threads (min 1), and restores
/// the previous count on exit, even on panic. The serve daemon gives each
/// worker its share of the CPUs this way. Results are bit-identical at
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
/// in order on the caller. Each piece sees `num_threads() == 1`, so an
/// evaluation it calls stays serial. Callers size `pieces` from
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
