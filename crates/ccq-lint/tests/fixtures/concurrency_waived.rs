//! Fixture: waived concurrency — a deliberately serial pool with the
//! invariant spelled out.

pub fn serial_pool() -> rayon::ThreadPool {
    // ccq-lint: allow(concurrency) — a single-thread pool pins deterministic reduction order
    rayon::ThreadPoolBuilder::new().num_threads(1).build().ok().into_iter().next().unwrap_or_else(|| todo_pool())
}
