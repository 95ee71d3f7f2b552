//! Fixture: the concurrency anti-patterns — descent state behind a
//! lock, an ad-hoc thread pool, and a raw `std::thread::spawn`, all of
//! which bypass the deterministic structural split of `ccq_tensor::par`.

use std::sync::Mutex;

pub struct Shared {
    scores: Mutex<Vec<f32>>,
}

pub fn fan_out(shared: &Shared) {
    let pool = pool::ThreadPoolBuilder::new().num_threads(4).build();
    std::thread::spawn(|| {});
    let _ = (pool, shared);
}
