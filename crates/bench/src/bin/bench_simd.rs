//! Snapshot benchmark for the packed SIMD microkernel and the
//! incremental probe path.
//!
//! Times three workloads and writes `BENCH_simd.json`:
//!
//! - matmul 512³ — the seed's naive triple loop vs the library's packed
//!   microkernel at 1/2/4/8 threads;
//! - a 10-round round-robin competition — full-forward probes
//!   (`Competition::incremental(false)`) vs incremental probes that
//!   re-enter at cached layer boundaries, at 1/2/4/8 threads;
//! - batched validation evaluation at 1/2/4/8 threads.
//!
//! All variants produce bit-identical outputs (see the
//! `parallel_identity`, `engine_equivalence`, and `incremental_eval`
//! suites); only wall-clock differs.
//!
//! Usage: `cargo run --release -p ccq-bench --bin bench_simd [out.json]`
//! (set `CCQ_BENCH_REPS` to change the per-variant repetition count).
//! With `--smoke` it runs one repetition of the 1-thread variants only,
//! self-checks the written JSON, and fails unless incremental probing is
//! at least as fast as full-forward probing — the CI gate.

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
use ccq_tensor::par::{num_threads, with_threads};
use ccq_tensor::{rng, Init, Tensor};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

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

/// One competition run at fixed seed; `incremental` selects the probe
/// path. Restores the network's specs afterward so reps are identical.
fn competition_once(net: &mut Network, val: &[Batch], incremental: bool) {
    let ladder = BitLadder::paper_default();
    let lambda = LambdaSchedule::constant(0.5);
    let specs: Vec<_> = (0..net.quant_layer_count())
        .map(|i| net.quant_spec(i))
        .collect();
    let mut comp = Competition::new(0.5, 10).incremental(incremental);
    let mut rr = rng(1);
    let out = comp
        .run(net, &ladder, None, &lambda, 0, val, &mut rr, &[], None)
        .expect("competition");
    black_box(out);
    for (i, spec) in specs.iter().enumerate() {
        net.set_quant_spec(i, *spec);
    }
}

fn main() -> ExitCode {
    let mut out_path = "BENCH_simd.json".to_string();
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => out_path = other.to_string(),
        }
    }
    let reps: usize = if smoke {
        1
    } else {
        std::env::var("CCQ_BENCH_REPS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(5)
    };
    let threads: &[usize] = if smoke { &[1] } else { &[1, 2, 4, 8] };
    let cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let kernel_threads = num_threads();
    let mut entries: Vec<Entry> = Vec::new();

    // --- matmul 512x512x512: naive seed kernel vs packed microkernel ---
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
    for &t in threads {
        entries.push(Entry {
            workload: "matmul_512x512x512",
            variant: format!("packed_{t}_threads"),
            threads: t,
            median_ms: time_median_ms(reps, || {
                black_box(with_threads(t, || {
                    matmul(black_box(&a), black_box(&b)).expect("matmul")
                }));
            }),
        });
    }

    // --- probe rounds: full-forward vs incremental ---
    eprintln!("competition round-robin, 10 rounds, full vs incremental");
    let (mut net, val) = workload();
    for &t in threads {
        for (label, incremental) in [("full", false), ("incremental", true)] {
            entries.push(Entry {
                workload: "competition_round_robin_10_rounds",
                variant: format!("{label}_{t}_threads"),
                threads: t,
                median_ms: time_median_ms(reps, || {
                    with_threads(t, || competition_once(&mut net, &val, incremental));
                }),
            });
        }
    }

    // --- batched validation evaluation ---
    eprintln!("evaluate, {} batches", val.len());
    for &t in threads {
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
    let lookup = |workload: &str, variant: &str| -> f64 {
        entries
            .iter()
            .find(|e| e.workload == workload && e.variant == variant)
            .map(|e| e.median_ms)
            .unwrap_or(f64::NAN)
    };
    let naive = lookup("matmul_512x512x512", "naive_seed_kernel");
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"host\": {{ \"cpus\": {cpus}, \"kernel_threads\": {kernel_threads}, \"reps\": {reps} }},\n"
    ));
    json.push_str(
        "  \"note\": \"All variants are bit-identical (parallel_identity, engine_equivalence, \
         incremental_eval suites). matmul speedups are vs the seed's naive kernel at the same \
         thread count; competition speedups compare incremental probing (cached layer-boundary \
         re-entry) against full-forward probing at the same thread count.\",\n",
    );
    json.push_str("  \"results\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let mut fields = format!(
            "    {{ \"workload\": \"{}\", \"variant\": \"{}\", \"threads\": {}, \"median_ms\": {:.3}",
            e.workload, e.variant, e.threads, e.median_ms
        );
        if e.workload == "matmul_512x512x512" {
            fields.push_str(&format!(
                ", \"speedup_vs_naive_seed_kernel\": {:.3}",
                naive / e.median_ms
            ));
        }
        if e.workload == "competition_round_robin_10_rounds" {
            let full = lookup(e.workload, &format!("full_{}_threads", e.threads));
            fields.push_str(&format!(
                ", \"speedup_vs_full_forward\": {:.3}",
                full / e.median_ms
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

    if smoke {
        // CI gate: the written snapshot must be sane and incremental
        // probing must never lose to full-forward probing.
        let written = std::fs::read_to_string(&out_path).expect("read back snapshot");
        if written != json {
            eprintln!("SMOKE FAIL: snapshot on disk differs from generated output");
            return ExitCode::FAILURE;
        }
        if !entries
            .iter()
            .all(|e| e.median_ms.is_finite() && e.median_ms > 0.0)
        {
            eprintln!("SMOKE FAIL: non-finite or non-positive median in snapshot");
            return ExitCode::FAILURE;
        }
        let full = lookup("competition_round_robin_10_rounds", "full_1_threads");
        let inc = lookup("competition_round_robin_10_rounds", "incremental_1_threads");
        let speedup = full / inc;
        if speedup.is_nan() || speedup < 1.0 {
            eprintln!("SMOKE FAIL: incremental probing slower than full forwards ({speedup:.3}x)");
            return ExitCode::FAILURE;
        }
        eprintln!("smoke ok: incremental vs full probe speedup {speedup:.3}x");
    }
    ExitCode::SUCCESS
}
