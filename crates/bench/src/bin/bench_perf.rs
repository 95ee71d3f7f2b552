//! Snapshot benchmark: kernel, competition and packed-inference timings
//! plus packed-artifact facts, written to `BENCH_perf.json`.
//!
//! Timing rows, each `{workload, variant, threads, ms}`:
//!
//! - matmul 512³ — the seed's naive triple loop vs the library's packed
//!   microkernel;
//! - on a small plain CNN: a 10-round round-robin competition with
//!   full-forward and incremental probes, batched validation `evaluate`,
//!   and one recovery (training) epoch — the paper's §III-B claim that a
//!   competition, a feed-forward on a small validation set, costs less
//!   than recovery training;
//! - fake-quant, packed-dequant and packed-integer forwards of
//!   ResNet20/18/50 under a mixed int8/int4/int2 ladder.
//!
//! Only the competition and `evaluate` rows split their work over
//! threads, so only they are timed at several thread counts; the kernels
//! run on their caller's thread, and every other row is timed once, at
//! the default thread count.
//!
//! The variants of one comparison run round-robin after one warm-up each
//! and report their fastest run, so a slow spell of a shared host hits
//! every variant alike. Rows with more threads than CPUs are marked
//! `overhead_only`. The per-model section records payload bytes vs
//! `f32`, dequant bit-exactness and the integer path's max deviation.
//!
//! Usage: `cargo run --release -p ccq-bench --bin bench_perf [out.json]
//! [--smoke]`; `CCQ_BENCH_REPS` sets the repetitions (default 20). With
//! `--smoke` it runs one repetition, the split rows at threads
//! {1, default}, writes `demo.ccqpack` next to the JSON, and fails unless
//! every check holds: the written JSON reads back, every timing is
//! finite and positive, incremental probing is no slower than full
//! probing at 1 thread, dequant is bit-exact, integer execution is
//! within `INT_BOUND`, compression is ≥ 2×, every unsplit row ran at the
//! default thread count and the demo artifact round-trips — the CI gate.

// Tables and CSVs go to stdout by design.
#![allow(clippy::print_stdout)]
// ccq-lint: allow-file(panic-surface) — bench harness: aborting on setup failure is the intended UX

use ccq::{Competition, LambdaSchedule};
use ccq_bench::{reps_from_env, time_interleaved_ms};
use ccq_data::{synth_cifar, SynthCifarConfig};
use ccq_infer::{arch, LayerPayload, PackedModel};
use ccq_models::{plain_cnn, ModelConfig, ModelKind};
use ccq_nn::train::{evaluate, train_epoch, Batch};
use ccq_nn::{Mode, Network, PackedExec, Sgd};
use ccq_quant::{BitLadder, BitWidth, PolicyKind, QuantSpec};
use ccq_tensor::ops::matmul;
use ccq_tensor::par::{num_threads, with_threads};
use ccq_tensor::{rng, Init, Tensor};
use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;

/// Integer-execution agreement bound (max abs deviation of the final
/// logits from the fake-quant forward). A single layer only differs by
/// `i32`-accumulation rounding, but activation grids are dynamic
/// (max-abs of the incoming batch), so a rounding-boundary input can
/// flip one activation code (~`alpha`/2^(bits-1)) and the flip
/// compounds through depth; observed worst case on the three seed
/// ResNets is ~5e-2, pinned at 1e-1.
const INT_BOUND: f64 = 1e-1;

/// The workloads whose code splits over threads, timed at every thread
/// count of the sweep.
const SPLIT_WORKLOADS: [&str; 2] = ["competition_10_rounds", "evaluate_8_batches"];

/// One timing row; `ms` is the fastest of the interleaved repetitions.
struct Row {
    workload: &'static str,
    variant: &'static str,
    threads: usize,
    ms: f64,
}

/// Packed-artifact facts for one model.
struct ModelFacts {
    model: &'static str,
    f32_bytes: usize,
    payload_bytes: usize,
    compression: f64,
    dequant_bit_exact: bool,
    int_max_abs_diff: f64,
}

/// Times `rows` as one interleaved comparison, each under its own
/// thread count, and appends them with their times to `out`.
fn time_rows(out: &mut Vec<Row>, reps: usize, mut rows: Vec<Row>, mut run: impl FnMut(&Row)) {
    let ms = time_interleaved_ms(rows.len(), reps, |i| {
        with_threads(rows[i].threads, || run(&rows[i]));
    });
    for (row, ms) in rows.iter_mut().zip(ms) {
        row.ms = ms;
    }
    out.extend(rows);
}

/// One untimed row per `(workload, variant)` pair at each thread count.
fn rows_for(variants: &[(&'static str, &'static str)], threads: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &threads in threads {
        for &(workload, variant) in variants {
            rows.push(Row {
                workload,
                variant,
                threads,
                ms: f64::NAN,
            });
        }
    }
    rows
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

/// One competition run at fixed seed; `incremental` selects the probe
/// path. Restores the network's specs afterward so reps are identical.
fn competition_once(net: &mut Network, val: &[Batch], incremental: bool) {
    let specs: Vec<_> = (0..net.quant_layer_count())
        .map(|i| net.quant_spec(i))
        .collect();
    let mut comp = Competition::new(0.5, 10).incremental(incremental);
    let out = comp
        .run(
            net,
            &BitLadder::paper_default(),
            None,
            &LambdaSchedule::constant(0.5),
            0,
            val,
            &mut rng(1),
            &[],
            None,
        )
        .expect("competition");
    black_box(out);
    for (i, spec) in specs.iter().enumerate() {
        net.set_quant_spec(i, *spec);
    }
}

/// Deterministic mixed-precision assignment: cycle int8/int4/int2 over
/// the layers, prune the second layer, keep the final layer (the
/// classifier head) at full precision — the shape of a finished CCQ
/// descent, with every payload regime represented.
fn packed_resnet(kind: ModelKind, family: &str) -> (Network, PackedModel) {
    let cfg = ModelConfig {
        classes: 4,
        width: 2,
        policy: PolicyKind::MaxAbs,
        seed: 9,
    };
    let mut net = kind.build(&cfg);
    let n = net.quant_layer_count();
    for i in 0..n {
        let spec = if i + 1 == n {
            QuantSpec::full_precision(PolicyKind::MaxAbs)
        } else if i == 1 {
            QuantSpec::new(PolicyKind::MaxAbs, BitWidth::ZERO, BitWidth::ZERO)
        } else {
            let bits = [8, 4, 2][i % 3];
            QuantSpec::new(PolicyKind::MaxAbs, BitWidth::of(bits), BitWidth::of(8))
        };
        net.set_quant_spec(i, spec);
    }
    let model = PackedModel::capture(&mut net, &arch::model_arch(family, cfg.classes, cfg.width))
        .expect("capture");
    (net, model)
}

/// Checks agreement and size of one packed ResNet, then times its three
/// forwards as one comparison.
fn bench_model(
    rows: &mut Vec<Row>,
    reps: usize,
    batch: usize,
    (kind, model_name, family): (ModelKind, &'static str, &str),
) -> ModelFacts {
    let (mut net, model) = packed_resnet(kind, family);
    let x = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[batch, 3, 16, 16], &mut rng(100));
    let mut deployed = model.instantiate().expect("instantiate");
    let fake = net.forward(&x, Mode::Eval).expect("fake-quant forward");
    let dequant = deployed.forward_packed(&x, PackedExec::Dequant);
    let integer = deployed.forward_packed(&x, PackedExec::Integer);
    let (dequant, integer) = (dequant.expect("dequant"), integer.expect("integer"));
    let f32_bytes: usize = (model.layers().iter())
        .map(|l| match &l.payload {
            LayerPayload::Packed(p) => 4 * p.len(),
            LayerPayload::Shadow(t) => 4 * t.len(),
        })
        .sum();
    let facts = ModelFacts {
        model: model_name,
        f32_bytes,
        payload_bytes: model.payload_bytes(),
        compression: f32_bytes as f64 / model.payload_bytes() as f64,
        dequant_bit_exact: fake.as_slice() == dequant.as_slice(),
        int_max_abs_diff: (fake.as_slice().iter().zip(integer.as_slice()))
            .map(|(a, b)| f64::from((a - b).abs()))
            .fold(0.0, f64::max),
    };
    let variants = [
        (model_name, "fake_quant"),
        (model_name, "packed_dequant"),
        (model_name, "packed_integer"),
    ];
    time_rows(rows, reps, rows_for(&variants, &[num_threads()]), |row| {
        let y = match row.variant {
            "fake_quant" => net.forward(black_box(&x), Mode::Eval),
            "packed_dequant" => deployed.forward_packed(black_box(&x), PackedExec::Dequant),
            _ => deployed.forward_packed(black_box(&x), PackedExec::Integer),
        };
        black_box(y.expect("forward"));
    });
    facts
}

/// Writes the ResNet20 demo artifact next to `out_path` and checks that
/// it loads back equal.
fn write_demo_artifact(out_path: &str) -> String {
    let (_, model) = packed_resnet(ModelKind::Resnet20, "resnet20");
    let demo = Path::new(out_path).with_file_name("demo.ccqpack");
    model.save_atomic(&demo).expect("write demo artifact");
    let back = PackedModel::load_with_fallback(&demo).expect("demo artifact loads");
    assert_eq!(back, model, "demo artifact round-trips byte-exactly");
    demo.display().to_string()
}

/// Runs the smoke checks, returning the first failure.
fn smoke_check(
    out_path: &str,
    json: &str,
    rows: &[Row],
    models: &[ModelFacts],
) -> Result<String, String> {
    let written = std::fs::read_to_string(out_path).map_err(|e| format!("read back: {e}"))?;
    if written != json {
        return Err("snapshot on disk differs from generated output".into());
    }
    if let Some(r) = rows.iter().find(|r| !(r.ms.is_finite() && r.ms > 0.0)) {
        return Err(format!("{}/{}: timing {} ms", r.workload, r.variant, r.ms));
    }
    let mut unsplit = rows
        .iter()
        .filter(|r| !SPLIT_WORKLOADS.contains(&r.workload));
    if let Some(r) = unsplit.clone().find(|r| r.threads != num_threads()) {
        return Err(format!(
            "{}/{} ran at {} threads, not the default {}",
            r.workload,
            r.variant,
            r.threads,
            num_threads()
        ));
    }
    if unsplit.next().is_none() {
        return Err("no row ran at the default thread count".into());
    }
    let ms = |variant| {
        (rows.iter())
            .find(|r| {
                r.workload == "competition_10_rounds" && r.variant == variant && r.threads == 1
            })
            .map_or(f64::NAN, |r| r.ms)
    };
    let speedup = ms("full") / ms("incremental");
    if speedup.is_nan() || speedup < 1.0 {
        return Err(format!(
            "incremental probing slower than full forwards ({speedup:.3}x)"
        ));
    }
    for m in models {
        if !m.dequant_bit_exact {
            return Err(format!("{}: packed dequant is not bit-exact", m.model));
        }
        if !m.int_max_abs_diff.is_finite() || m.int_max_abs_diff > INT_BOUND {
            let dev = m.int_max_abs_diff;
            return Err(format!(
                "{}: integer deviation {dev:.3e} exceeds {INT_BOUND:.1e}",
                m.model
            ));
        }
        if m.compression < 2.0 {
            return Err(format!(
                "{}: compression {:.2}x below the 2x floor",
                m.model, m.compression
            ));
        }
    }
    let demo = write_demo_artifact(out_path);
    Ok(format!(
        "incremental probing {speedup:.3}x over full; demo artifact at {demo}"
    ))
}

fn main() -> ExitCode {
    let mut out_path = "BENCH_perf.json".to_string();
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => out_path = other.to_string(),
        }
    }
    let reps = if smoke {
        1
    } else {
        reps_from_env(std::env::var("CCQ_BENCH_REPS").ok().as_deref(), 20)
    };
    let batch = if smoke { 2 } else { 8 };
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let default_threads = num_threads();
    let mut threads = if smoke {
        vec![1, default_threads]
    } else {
        vec![1, 2, 4, 8]
    };
    threads.dedup();
    let mut rows = Vec::new();

    eprintln!("matmul 512x512x512 ({reps} reps per variant, {default_threads} threads)");
    let mut init = rng(0);
    let a = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[512, 512], &mut init);
    let b = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[512, 512], &mut init);
    let matmul_rows = rows_for(
        &[
            ("matmul_512x512x512", "naive"),
            ("matmul_512x512x512", "packed"),
        ],
        &[default_threads],
    );
    time_rows(&mut rows, reps, matmul_rows, |row| {
        black_box(match row.variant {
            "naive" => naive_matmul(black_box(&a), black_box(&b)),
            _ => matmul(black_box(&a), black_box(&b)).expect("matmul"),
        });
    });

    eprintln!("plain CNN: competition, evaluate (threads {threads:?}), recovery epoch");
    let data = synth_cifar(&SynthCifarConfig {
        classes: 4,
        samples_per_class: 16,
        image_size: 8,
        seed: 0,
        ..Default::default()
    });
    let (train, val) = data.split_at(48);
    let (train, val) = (train.batches(16), val.batches(2));
    let mut net = plain_cnn(4, 2, PolicyKind::Pact, 0);
    // Training moves the weights, so it runs on its own copy and leaves
    // every competition and evaluate rep the same work.
    let mut recovering = plain_cnn(4, 2, PolicyKind::Pact, 0);
    let (mut opt, mut r) = (Sgd::new(0.01).momentum(0.9), rng(2));
    let mut cnn_rows = rows_for(
        &[
            ("competition_10_rounds", "full"),
            ("competition_10_rounds", "incremental"),
            ("evaluate_8_batches", "eval"),
        ],
        &threads,
    );
    cnn_rows.extend(rows_for(
        &[("recovery_epoch", "train_epoch")],
        &[default_threads],
    ));
    time_rows(&mut rows, reps, cnn_rows, |row| match row.variant {
        "full" => competition_once(&mut net, &val, false),
        "incremental" => competition_once(&mut net, &val, true),
        "eval" => {
            black_box(evaluate(&mut net, &val).expect("eval"));
        }
        _ => {
            black_box(train_epoch(&mut recovering, &train, &mut opt, &mut r).expect("train"));
        }
    });

    let mut models = Vec::new();
    for workload in [
        (ModelKind::Resnet20, "resnet20", "resnet20"),
        (ModelKind::Resnet18, "resnet18", "resnet18"),
        (ModelKind::Resnet50, "resnet50_style", "resnet50"),
    ] {
        eprintln!("packing + timing {} (batch {batch})", workload.1);
        models.push(bench_model(&mut rows, reps, batch, workload));
    }

    let mut json = format!(
        "{{\n  \"host\": {{ \"cpus\": {cpus}, \"default_threads\": {default_threads}, \"reps\": {reps}, \"batch\": {batch} }},\n"
    );
    json.push_str(&format!(
        "  \"note\": \"ms is the fastest of reps runs, the variants of one comparison timed \
         round-robin. All thread counts and probe paths are bit-identical. Packed models use a \
         mixed int8/int4/int2 ladder with one pruned layer and an f32 head; dequant must equal \
         the fake-quant Eval forward bit for bit and integer execution stay within {INT_BOUND} \
         max abs deviation.\",\n  \"timings\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        let overhead = if r.threads > cpus {
            ", \"overhead_only\": true"
        } else {
            ""
        };
        json.push_str(&format!(
            "    {{ \"workload\": \"{}\", \"variant\": \"{}\", \"threads\": {}, \"ms\": {:.3}{overhead} }}{}\n",
            r.workload,
            r.variant,
            r.threads,
            r.ms,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"models\": [\n");
    for (i, m) in models.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"model\": \"{}\", \"f32_bytes\": {}, \"payload_bytes\": {}, \
             \"compression_vs_f32\": {:.3}, \"dequant_bit_exact\": {}, \
             \"integer_max_abs_diff\": {:.3e} }}{}\n",
            m.model,
            m.f32_bytes,
            m.payload_bytes,
            m.compression,
            m.dequant_bit_exact,
            m.int_max_abs_diff,
            if i + 1 < models.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("{json}");
    eprintln!("wrote {out_path}");

    if smoke {
        match smoke_check(&out_path, &json, &rows, &models) {
            Ok(summary) => eprintln!("smoke ok: {summary}"),
            Err(why) => {
                eprintln!("SMOKE FAIL: {why}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
