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
//! - one training epoch and one `evaluate` of the `ccq-serve` demo job's
//!   8→16→16→4 PACT MLP on its data (4-class blobs of dim 8, 12 train
//!   batches of 16, 2 validation batches of 32): every f32 product there
//!   runs the small-product kernel;
//! - fake-quant, packed-dequant and packed-integer forwards of
//!   ResNet20/18/50 under a mixed int8/int4/int2 ladder;
//! - the packed-integer forward at the geometry of perfbench's `infer`
//!   workload: ResNet50-style at width 4, ten classes, a batch of eight
//!   16×16 images, no pruned layer.
//!
//! Each packed-integer row also reports the minor page faults one
//! forward takes once warmed up (`/proc/self/stat` field 10, counted
//! over `FAULT_FORWARDS` forwards): a forward that allocates its
//! activations afresh faults their memory back in on every call.
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
//! `--smoke` it runs one repetition (`SMOKE_CNN_REPS` for the plain-CNN
//! rows), the split rows at threads {1, default}, writes `demo.ccqpack`
//! next to the JSON, and fails unless every check holds: the written
//! JSON reads back, every timing is finite and positive, incremental
//! probing runs as many probes as full probing on less than all of the
//! forward work and is no slower at 1 thread, dequant is bit-exact,
//! integer execution is within `INT_BOUND`, compression is ≥ 2×, every
//! unsplit row ran at the default thread count, the `infer`-geometry
//! forward takes less than one minor fault per call, every product shape
//! of the demo MLP equals the naive triple loop bit for bit and the demo
//! artifact round-trips — the CI gate.

// Tables and CSVs go to stdout by design.
#![allow(clippy::print_stdout)]
// ccq-lint: allow-file(panic-surface) — bench harness: aborting on setup failure is the intended UX

use ccq::{Competition, LambdaSchedule, ProbeCacheStats};
use ccq_bench::{reps_from_env, time_interleaved_ms};
use ccq_data::{gaussian_blobs, synth_cifar, BlobsConfig, SynthCifarConfig};
use ccq_infer::{arch, LayerPayload, PackedModel};
use ccq_models::{mlp, plain_cnn, ModelConfig, ModelKind};
use ccq_nn::train::{evaluate, train_epoch, Batch};
use ccq_nn::{Mode, Network, PackedExec, Sgd};
use ccq_quant::{BitLadder, BitWidth, PolicyKind, QuantSpec};
use ccq_tensor::ops::{matmul, matmul_a_bt, matmul_at_b, transpose2d};
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

/// The workload name of the packed-integer row at `infer`'s geometry.
const INFER_WORKLOAD: &str = "resnet50_style_infer";

/// Repetitions of the plain-CNN rows under `--smoke`: the gate compares
/// the two competition variants' fastest times, and a single rep let a
/// busy host's noise fail it on unchanged code (0.935×).
const SMOKE_CNN_REPS: usize = 5;

/// Layer widths of the `ccq-serve` demo job's MLP (`JobSpec::demo`).
const DEMO_MLP: [usize; 4] = [8, 16, 16, 4];

/// The demo job's training and validation batch sizes.
const DEMO_BATCHES: [usize; 2] = [16, 32];

/// Forwards counted, after two warm-up forwards, for a row's minor
/// faults per forward.
const FAULT_FORWARDS: usize = 20;

/// One timing row; `ms` is the fastest of the interleaved repetitions.
/// Packed-integer rows carry their minor faults per forward (NaN when
/// `/proc/self/stat` cannot be read).
struct Row {
    workload: &'static str,
    variant: &'static str,
    threads: usize,
    ms: f64,
    faults: Option<f64>,
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
                faults: None,
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

/// Times one training epoch and one `evaluate` of the demo job's MLP on
/// its data: 4-class blobs of dim 8, 192 training samples in batches of
/// 16 and 64 validation samples in batches of 32.
fn bench_demo_mlp(rows: &mut Vec<Row>, reps: usize) {
    let (train, val) = gaussian_blobs(&BlobsConfig {
        classes: 4,
        dim: DEMO_MLP[0],
        samples_per_class: 64,
        std: 0.4,
        seed: 20,
    })
    .split_at(192);
    let (train, val) = (train.batches(DEMO_BATCHES[0]), val.batches(DEMO_BATCHES[1]));
    let mut net = mlp(&DEMO_MLP, PolicyKind::Pact, 5);
    // Training moves the weights, so it runs on its own copy.
    let mut recovering = mlp(&DEMO_MLP, PolicyKind::Pact, 5);
    let (mut opt, mut r) = (Sgd::new(0.05).momentum(0.9), rng(2));
    let variants = [("mlp_train_epoch", "train_epoch"), ("mlp_evaluate", "eval")];
    time_rows(rows, reps, rows_for(&variants, &[num_threads()]), |row| {
        if row.variant == "eval" {
            black_box(evaluate(&mut net, &val).expect("eval"));
        } else {
            black_box(train_epoch(&mut recovering, &train, &mut opt, &mut r).expect("train"));
        }
    });
}

/// Checks each f32 product of the demo MLP's forward and backward, at
/// both batch sizes, against [`naive_matmul`] bit for bit, and returns
/// how many products it checked. The data are finite, so the naive
/// loop's zero skip cannot change a bit.
fn check_demo_mlp_products() -> Result<usize, String> {
    let mut r = rng(3);
    let mut sample = |dims: &[usize]| Init::Uniform { lo: -1.0, hi: 1.0 }.sample(dims, &mut r);
    let mut checked = 0;
    for batch in DEMO_BATCHES {
        for dims in DEMO_MLP.windows(2) {
            let (x, w, g) = (
                sample(&[batch, dims[0]]),
                sample(&[dims[1], dims[0]]),
                sample(&[batch, dims[1]]),
            );
            let tr = |t: &Tensor| transpose2d(t).expect("matrix");
            for (what, got, want) in [
                (
                    "matmul_a_bt",
                    matmul_a_bt(&x, &w),
                    naive_matmul(&x, &tr(&w)),
                ),
                (
                    "matmul_at_b",
                    matmul_at_b(&g, &x),
                    naive_matmul(&tr(&g), &x),
                ),
                ("matmul", matmul(&g, &w), naive_matmul(&g, &w)),
            ] {
                let got = got.map_err(|e| format!("{what}: {e}"))?;
                let same = (got.as_slice().iter().zip(want.as_slice()))
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                if got.shape() != want.shape() || !same {
                    return Err(format!(
                        "{what} at batch {batch}, layer {}→{}: differs from the naive loop",
                        dims[0], dims[1]
                    ));
                }
                checked += 1;
            }
        }
    }
    Ok(checked)
}

/// One competition run at fixed seed; `incremental` selects the probe
/// path. Restores the network's specs afterward so reps are identical,
/// and returns the run's probe accounting.
fn competition_once(net: &mut Network, val: &[Batch], incremental: bool) -> ProbeCacheStats {
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
    comp.cache_stats().clone()
}

/// Minor page faults of this process so far: field 10 of
/// `/proc/self/stat`, counted after the parenthesised command name,
/// which may hold spaces.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let fields = stat.get(stat.rfind(')')? + 1..)?;
    fields.split_whitespace().nth(7)?.parse().ok()
}

/// Minor faults per call of `forward` after two warm-up calls, or NaN
/// when the counter cannot be read.
fn faults_per_forward(mut forward: impl FnMut()) -> f64 {
    forward();
    forward();
    let before = minor_faults();
    for _ in 0..FAULT_FORWARDS {
        forward();
    }
    match (before, minor_faults()) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64 / FAULT_FORWARDS as f64,
        _ => f64::NAN,
    }
}

/// Records `faults` on the `workload`'s packed-integer row.
fn set_faults(rows: &mut [Row], workload: &str, faults: f64) {
    for r in rows.iter_mut() {
        if r.workload == workload && r.variant == "packed_integer" {
            r.faults = Some(faults);
        }
    }
}

/// The small ResNets of the per-model rows: four classes at width 2.
fn small_config() -> ModelConfig {
    ModelConfig {
        classes: 4,
        width: 2,
        policy: PolicyKind::MaxAbs,
        seed: 9,
    }
}

/// Deterministic mixed-precision assignment: cycle int8/int4/int2 over
/// the layers and keep the final layer (the classifier head) at full
/// precision — the shape of a finished CCQ descent. `prune_second`
/// also prunes the second layer, so every payload regime is represented.
fn packed_resnet(
    kind: ModelKind,
    family: &str,
    cfg: &ModelConfig,
    prune_second: bool,
) -> (Network, PackedModel) {
    let mut net = kind.build(cfg);
    let n = net.quant_layer_count();
    for i in 0..n {
        let spec = if i + 1 == n {
            QuantSpec::full_precision(PolicyKind::MaxAbs)
        } else if i == 1 && prune_second {
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
    let (mut net, model) = packed_resnet(kind, family, &small_config(), true);
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
    let faults = faults_per_forward(|| {
        black_box(deployed.forward_packed(black_box(&x), PackedExec::Integer)).expect("forward");
    });
    set_faults(rows, model_name, faults);
    facts
}

/// Times the packed-integer forward at `infer`'s geometry and counts its
/// minor faults per forward. As in `infer`, the net is deployed from
/// its CCQPACK bytes: whether freed activations are trimmed from the
/// heap and faulted back in depends on what was allocated before them,
/// and a net packed in place reads no faults even when its forward
/// frees every activation.
fn bench_infer_geometry(rows: &mut Vec<Row>, reps: usize) {
    let cfg = ModelConfig {
        classes: 10,
        width: 4,
        ..small_config()
    };
    let (_, model) = packed_resnet(ModelKind::Resnet50, "resnet50", &cfg, false);
    let model = PackedModel::from_bytes(&model.to_bytes()).expect("artifact decodes");
    let mut deployed = model.instantiate().expect("instantiate");
    let x = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[8, 3, 16, 16], &mut rng(100));
    let mut forward = || {
        black_box(deployed.forward_packed(black_box(&x), PackedExec::Integer)).expect("forward");
    };
    let variants = [(INFER_WORKLOAD, "packed_integer")];
    time_rows(rows, reps, rows_for(&variants, &[num_threads()]), |_| {
        forward()
    });
    let faults = faults_per_forward(forward);
    set_faults(rows, INFER_WORKLOAD, faults);
}

/// Writes the ResNet20 demo artifact next to `out_path` and checks that
/// it loads back equal.
fn write_demo_artifact(out_path: &str) -> String {
    let (_, model) = packed_resnet(ModelKind::Resnet20, "resnet20", &small_config(), true);
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
    [full, incremental]: &[ProbeCacheStats; 2],
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
    let probes = |s: &ProbeCacheStats| s.hits + s.misses;
    let fraction = incremental.forward_fraction();
    if probes(full) == 0 || probes(incremental) != probes(full) || fraction >= 1.0 {
        return Err(format!(
            "incremental probing ran {} probes on {fraction:.3} of the forward work, \
             full probing {} probes",
            probes(incremental),
            probes(full)
        ));
    }
    let speedup = ms("full") / ms("incremental");
    if speedup.is_nan() || speedup < 1.0 {
        return Err(format!(
            "incremental probing slower than full forwards ({speedup:.3}x)"
        ));
    }
    let faults = (rows.iter())
        .find(|r| r.workload == INFER_WORKLOAD)
        .and_then(|r| r.faults)
        .unwrap_or(f64::NAN);
    if faults.is_nan() || faults >= 1.0 {
        return Err(format!(
            "{INFER_WORKLOAD}: {faults} minor faults per packed-integer forward after warm-up \
             (must stay below 1)"
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
    let products = check_demo_mlp_products()?;
    let demo = write_demo_artifact(out_path);
    Ok(format!(
        "incremental probing {speedup:.3}x over full on {fraction:.3} of its forward work; \
         {products} demo-MLP products equal the naive loop; demo artifact at {demo}"
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

    // First, while glibc's dynamic mmap and trim thresholds are still at
    // their defaults: the 512³ matmul below frees 1 MiB buffers, which
    // raises both for the rest of the process and hides the faults of a
    // forward that frees its activations.
    eprintln!("timing {INFER_WORKLOAD} (width 4, batch 8)");
    bench_infer_geometry(&mut rows, reps);

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
    let cnn_reps = if smoke { SMOKE_CNN_REPS } else { reps };
    let mut probe_stats = [ProbeCacheStats::default(), ProbeCacheStats::default()];
    time_rows(&mut rows, cnn_reps, cnn_rows, |row| match row.variant {
        "full" => probe_stats[0] = competition_once(&mut net, &val, false),
        "incremental" => probe_stats[1] = competition_once(&mut net, &val, true),
        "eval" => {
            black_box(evaluate(&mut net, &val).expect("eval"));
        }
        _ => {
            black_box(train_epoch(&mut recovering, &train, &mut opt, &mut r).expect("train"));
        }
    });

    eprintln!("demo MLP {DEMO_MLP:?}: train epoch, evaluate");
    bench_demo_mlp(&mut rows, reps);

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
         max abs deviation. Packed-integer rows count minor page faults per forward after two \
         warm-up forwards; {INFER_WORKLOAD} is perfbench infer's geometry (width 4, 10 classes, \
         batch 8, no pruned layer) and must stay below one.\",\n  \"timings\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        let overhead = if r.threads > cpus {
            ", \"overhead_only\": true"
        } else {
            ""
        };
        let faults = match r.faults {
            Some(f) if f.is_finite() => format!(", \"minor_faults_per_forward\": {f:.2}"),
            Some(_) => ", \"minor_faults_per_forward\": null".to_string(),
            None => String::new(),
        };
        json.push_str(&format!(
            "    {{ \"workload\": \"{}\", \"variant\": \"{}\", \"threads\": {}, \"ms\": {:.3}{overhead}{faults} }}{}\n",
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
        match smoke_check(&out_path, &json, &rows, &probe_stats, &models) {
            Ok(summary) => eprintln!("smoke ok: {summary}"),
            Err(why) => {
                eprintln!("SMOKE FAIL: {why}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
