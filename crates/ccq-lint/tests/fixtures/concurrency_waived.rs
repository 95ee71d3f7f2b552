//! Fixture: waived concurrency — a deliberately serial pool with the
//! invariant spelled out.

pub fn serial_pool() -> pool::ThreadPool {
    // ccq-lint: allow(concurrency) — a single-thread pool pins deterministic reduction order
    pool::ThreadPoolBuilder::new().num_threads(1).build().ok().into_iter().next().unwrap_or_else(|| todo_pool())
}
