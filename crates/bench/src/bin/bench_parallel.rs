//! Snapshot benchmark for the parallel compute layer.
//!
//! Times the matmul 512³ kernel (seed's naive triple loop vs the blocked
//! microkernel at 1/2/4/8 threads), a 10-round round-robin competition,
//! and batched validation evaluation, then writes `BENCH_parallel.json`
//! with the host topology attached so the numbers can be interpreted.
//! All variants produce bit-identical outputs; only wall-clock differs.
//!
//! Usage: `cargo run --release -p ccq-bench --bin bench_parallel [out.json]`
//! (set `CCQ_BENCH_REPS` to change the per-variant repetition count).

// Tables and CSVs go to stdout by design.
#![allow(clippy::print_stdout)]
// ccq-lint: allow-file(panic-surface) — bench harness: aborting on setup failure is the intended UX

use ccq::{Competition, LambdaSchedule};
use ccq_data::{synth_cifar, SynthCifarConfig};
use ccq_models::plain_cnn;
use ccq_nn::train::{evaluate, Batch};
use ccq_nn::Network;
use ccq_quant::{BitLadder, PolicyKind};
use ccq_tensor::ops::matmul;
use ccq_tensor::par::with_threads;
use ccq_tensor::{rng, Init, Tensor};
use std::hint::black_box;
use std::time::Instant;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Median wall-clock over `reps` runs, in milliseconds.
fn time_median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy state
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

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

struct Entry {
    workload: &'static str,
    variant: String,
    threads: usize,
    median_ms: f64,
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

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_parallel.json".into());
    let reps: usize = std::env::var("CCQ_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let parallel_feature = cfg!(feature = "parallel");
    let mut entries: Vec<Entry> = Vec::new();

    // --- matmul 512x512x512 ---
    eprintln!("matmul 512x512x512 ({reps} reps per variant)");
    let mut r = rng(0);
    let a = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[512, 512], &mut r);
    let b = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[512, 512], &mut r);
    entries.push(Entry {
        workload: "matmul_512x512x512",
        variant: "naive_seed_kernel".into(),
        threads: 1,
        median_ms: time_median_ms(reps, || {
            black_box(naive_matmul(black_box(&a), black_box(&b)));
        }),
    });
    for t in THREADS {
        entries.push(Entry {
            workload: "matmul_512x512x512",
            variant: format!("blocked_{t}_threads"),
            threads: t,
            median_ms: time_median_ms(reps, || {
                black_box(with_threads(t, || {
                    matmul(black_box(&a), black_box(&b)).expect("matmul")
                }));
            }),
        });
    }

    // --- 10-round round-robin competition ---
    eprintln!("competition round-robin, 10 rounds");
    let (mut net, val) = workload();
    let ladder = BitLadder::paper_default();
    let lambda = LambdaSchedule::constant(0.5);
    let specs: Vec<_> = (0..net.quant_layer_count())
        .map(|i| net.quant_spec(i))
        .collect();
    for t in THREADS {
        entries.push(Entry {
            workload: "competition_round_robin_10_rounds",
            variant: format!("{t}_threads"),
            threads: t,
            median_ms: time_median_ms(reps, || {
                let out = with_threads(t, || {
                    let mut comp = Competition::new(0.5, 10);
                    let mut rr = rng(1);
                    comp.run(
                        &mut net,
                        &ladder,
                        None,
                        &lambda,
                        0,
                        &val,
                        &mut rr,
                        &[],
                        None,
                    )
                    .expect("competition")
                });
                black_box(out);
                for (i, spec) in specs.iter().enumerate() {
                    net.set_quant_spec(i, *spec);
                }
            }),
        });
    }

    // --- batched validation evaluation ---
    eprintln!("evaluate, {} batches", val.len());
    for t in THREADS {
        entries.push(Entry {
            workload: "evaluate_8_batches",
            variant: format!("{t}_threads"),
            threads: t,
            median_ms: time_median_ms(reps, || {
                black_box(with_threads(t, || evaluate(&mut net, &val).expect("eval")));
            }),
        });
    }

    // --- report ---
    let baseline = |workload: &str, variant: &str| -> f64 {
        entries
            .iter()
            .find(|e| e.workload == workload && e.variant == variant)
            .map(|e| e.median_ms)
            .unwrap_or(f64::NAN)
    };
    let naive = baseline("matmul_512x512x512", "naive_seed_kernel");
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"host\": {{ \"cpus\": {cpus}, \"parallel_feature\": {parallel_feature}, \"reps\": {reps} }},\n"
    ));
    json.push_str(
        "  \"note\": \"All variants are bit-identical (see parallel_identity tests). \
         Speedups are vs the 1-thread variant of the same workload; matmul also reports \
         speedup vs the seed's naive kernel. Thread scaling requires cpus > 1.\",\n",
    );
    json.push_str("  \"results\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let serial = match e.workload {
            "matmul_512x512x512" => baseline(e.workload, "blocked_1_threads"),
            _ => baseline(e.workload, "1_threads"),
        };
        let mut fields = format!(
            "    {{ \"workload\": \"{}\", \"variant\": \"{}\", \"threads\": {}, \"median_ms\": {:.3}, \"speedup_vs_serial\": {:.3}",
            e.workload,
            e.variant,
            e.threads,
            e.median_ms,
            serial / e.median_ms
        );
        if e.workload == "matmul_512x512x512" {
            fields.push_str(&format!(
                ", \"speedup_vs_naive_seed_kernel\": {:.3}",
                naive / e.median_ms
            ));
        }
        fields.push_str(" }");
        if i + 1 < entries.len() {
            fields.push(',');
        }
        fields.push('\n');
        json.push_str(&fields);
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
