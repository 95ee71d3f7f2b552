//! Criterion benches for CCQ's algorithmic stages on a small CNN:
//! one competition probe (eval forward on a validation batch), one full
//! competition, one recovery epoch, and one Hutchinson Hessian probe.
//!
//! The paper's §III-B.a cost argument — the competition "is a cheap
//! operation … a simple feed-forward on a small validation set, in
//! contrast to the large training dataset" — is directly measurable here:
//! compare `competition_full` against `recovery_epoch`.

use ccq::baselines::hawq::estimate_hessian_traces;
use ccq::{Competition, LambdaSchedule};
use ccq_data::{synth_cifar, SynthCifarConfig};
use ccq_models::plain_cnn;
use ccq_nn::train::{evaluate, train_epoch, Batch};
use ccq_nn::{Network, Sgd};
use ccq_quant::BitLadder;
use ccq_quant::PolicyKind;
use ccq_tensor::rng;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn workload() -> (Network, Vec<Batch>, Vec<Batch>) {
    let data = synth_cifar(&SynthCifarConfig {
        classes: 4,
        samples_per_class: 16,
        image_size: 8,
        seed: 0,
        ..Default::default()
    });
    let (train, val) = data.split_at(48);
    (
        plain_cnn(4, 2, PolicyKind::Pact, 0),
        train.batches(16),
        val.batches(16),
    )
}

fn bench_probe(c: &mut Criterion) {
    let (mut net, _, val) = workload();
    c.bench_function("validation_probe_eval_forward", |b| {
        b.iter(|| evaluate(black_box(&mut net), black_box(&val[..1])).expect("eval"))
    });
}

fn bench_competition(c: &mut Criterion) {
    let (mut net, _, val) = workload();
    let ladder = BitLadder::paper_default();
    let lambda = LambdaSchedule::constant(0.5);
    c.bench_function("competition_full_2_rounds", |b| {
        b.iter(|| {
            // Fresh competition each iteration so the applied winner does
            // not drain the ladder across iterations.
            let snapshot: Vec<_> = {
                let mut specs = Vec::new();
                for i in 0..net.quant_layer_count() {
                    specs.push(net.quant_spec(i));
                }
                specs
            };
            let mut comp = Competition::new(0.5, 2);
            let mut r = rng(1);
            let out = comp
                .run(
                    &mut net,
                    &ladder,
                    None,
                    &lambda,
                    0,
                    &val[..1],
                    &mut r,
                    &[],
                    None,
                )
                .expect("competition");
            for (i, spec) in snapshot.into_iter().enumerate() {
                net.set_quant_spec(i, spec);
            }
            out
        })
    });
}

fn bench_recovery_epoch(c: &mut Criterion) {
    let (mut net, train, _) = workload();
    let mut opt = Sgd::new(0.01).momentum(0.9);
    let mut r = rng(2);
    c.bench_function("recovery_epoch_train", |b| {
        b.iter(|| {
            train_epoch(black_box(&mut net), black_box(&train), &mut opt, &mut r).expect("train")
        })
    });
}

fn bench_hessian_probe(c: &mut Criterion) {
    let (mut net, train, _) = workload();
    let mut r = rng(3);
    c.bench_function("hawq_hessian_probe_1", |b| {
        b.iter(|| {
            estimate_hessian_traces(black_box(&mut net), &train[0], 1, 1e-2, &mut r)
                .expect("hessian probe")
        })
    });
}

criterion_group!(
    benches,
    bench_probe,
    bench_competition,
    bench_recovery_epoch,
    bench_hessian_probe
);
criterion_main!(benches);
