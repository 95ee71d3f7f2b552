//! Criterion comparison of the serial and parallel compute paths.
//!
//! Every workload runs under explicitly sized thread pools (1, 2, 4, 8) —
//! 1 thread pins the sequential code path — plus, for matmul, the naive
//! triple-loop kernel the blocked microkernel replaced. Results are
//! bit-identical across all variants (see the `parallel_identity` tests);
//! only the wall-clock differs.
//!
//! Run with `cargo bench -p ccq-bench --bench parallel`. On a single-CPU
//! host the threaded variants show pool overhead rather than speedup;
//! `bench_parallel` (the harness binary) records the same workloads with
//! host topology attached.

use ccq::{Competition, LambdaSchedule};
use ccq_data::{synth_cifar, SynthCifarConfig};
use ccq_models::plain_cnn;
use ccq_nn::train::{evaluate, Batch};
use ccq_nn::Network;
use ccq_quant::{BitLadder, PolicyKind};
use ccq_tensor::ops::matmul;
use ccq_tensor::par::with_threads;
use ccq_tensor::{rng, Init, Tensor};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The seed's reference kernel: a plain `i, p, j` triple loop.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    let (av, bv) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let aip = av[i * k + p];
            if aip == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += aip * bv[p * n + j];
            }
        }
    }
    Tensor::from_vec(out, &[m, n]).expect("shape matches")
}

fn bench_matmul_512(c: &mut Criterion) {
    let mut r = rng(0);
    let a = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[512, 512], &mut r);
    let b = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[512, 512], &mut r);
    let mut group = c.benchmark_group("matmul_512x512x512");
    group.bench_function("naive_seed_kernel", |bench| {
        bench.iter(|| naive_matmul(black_box(&a), black_box(&b)))
    });
    for t in THREADS {
        group.bench_function(format!("blocked_{t}_threads"), |bench| {
            bench.iter(|| with_threads(t, || matmul(black_box(&a), black_box(&b)).expect("matmul")))
        });
    }
    group.finish();
}

fn workload() -> (Network, Vec<Batch>) {
    let data = synth_cifar(&SynthCifarConfig {
        classes: 4,
        samples_per_class: 16,
        image_size: 8,
        seed: 0,
        ..Default::default()
    });
    let (_, val) = data.split_at(48);
    (plain_cnn(4, 2, PolicyKind::Pact, 0), val.batches(2))
}

fn bench_competition_10_rounds(c: &mut Criterion) {
    let (mut net, val) = workload();
    let ladder = BitLadder::paper_default();
    let lambda = LambdaSchedule::constant(0.5);
    let specs: Vec<_> = (0..net.quant_layer_count())
        .map(|i| net.quant_spec(i))
        .collect();
    let mut group = c.benchmark_group("competition_round_robin_10_rounds");
    for t in THREADS {
        group.bench_function(format!("{t}_threads"), |bench| {
            bench.iter(|| {
                let out = with_threads(t, || {
                    let mut comp = Competition::new(0.5, 10);
                    let mut r = rng(1);
                    comp.run(&mut net, &ladder, None, &lambda, 0, &val, &mut r, &[], None)
                        .expect("competition")
                });
                // Undo the applied winner so the ladder never drains.
                for (i, spec) in specs.iter().enumerate() {
                    net.set_quant_spec(i, *spec);
                }
                out
            })
        });
    }
    group.finish();
}

fn bench_evaluate(c: &mut Criterion) {
    let (mut net, val) = workload();
    let mut group = c.benchmark_group("evaluate_8_batches");
    for t in THREADS {
        group.bench_function(format!("{t}_threads"), |bench| {
            bench.iter(|| with_threads(t, || evaluate(black_box(&mut net), &val).expect("eval")))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul_512,
    bench_competition_10_rounds,
    bench_evaluate
);
criterion_main!(benches);
