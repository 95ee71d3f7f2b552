//! Snapshot benchmark for packed low-bit inference.
//!
//! Packs the three seed ResNet workloads under a deterministic
//! mixed-precision assignment (int8 / int4 / int2 cycling per layer,
//! one pruned layer, full-precision head), then measures and writes
//! `BENCH_pack.json`:
//!
//! - **memory**: packed payload bytes vs `f32` weight storage, checked
//!   against the `ccq-hw` size model;
//! - **agreement**: packed dequant execution must equal the fake-quant
//!   `Eval` forward bit-exactly; integer execution must agree within an
//!   accumulation-rounding bound;
//! - **throughput**: fastest forward wall-clock of the repetitions for
//!   fake-quant, packed dequant, and packed integer execution. On a
//!   shared host the median of back-to-back runs of one binary moved by
//!   up to 1.6×; the minimum is the run least disturbed by other load.
//!
//! Usage: `cargo run --release -p ccq-bench --bin bench_pack [out.json]
//! [--smoke]` (set `CCQ_BENCH_REPS` to change the repetition count).
//! `--smoke` runs one repetition, additionally writes a demo
//! `demo.ccqpack` artifact next to the JSON, round-trips it from disk,
//! and fails unless every workload agrees bit-exactly in dequant mode,
//! stays within the integer bound, and compresses at least 2x vs `f32`
//! — the CI gate.

// Tables and CSVs go to stdout by design.
#![allow(clippy::print_stdout)]
// ccq-lint: allow-file(panic-surface) — bench harness: aborting on setup failure is the intended UX

use ccq_infer::{arch, PackedModel};
use ccq_models::{ModelConfig, ModelKind};
use ccq_nn::{Mode, Network, PackedExec};
use ccq_quant::{BitWidth, PolicyKind, QuantSpec};
use ccq_tensor::{rng, Init};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// Integer-execution agreement bound (max abs deviation of the final
/// logits from the fake-quant forward). A single layer only differs by
/// `i32`-accumulation rounding, but activation grids are dynamic
/// (max-abs of the incoming batch), so a rounding-boundary input can
/// flip one activation code (~`alpha`/2^(bits-1)) and the flip
/// compounds through depth; observed worst case on the three seed
/// ResNets is ~5e-2, pinned at 1e-1.
const INT_BOUND: f64 = 1e-1;

/// Fastest wall-clock of `reps` runs, in milliseconds.
fn time_min_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy state
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Deterministic mixed-precision assignment: cycle int8/int4/int2 over
/// the layers, prune the second layer, keep the final layer (the
/// classifier head) at full precision — the shape of a finished CCQ
/// descent, with every payload regime represented.
fn assign_mixed_ladder(net: &mut Network) {
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
}

struct Entry {
    workload: &'static str,
    f32_bytes: usize,
    payload_bytes: usize,
    compression: f64,
    dequant_bit_exact: bool,
    int_max_abs_diff: f64,
    fake_ms: f64,
    dequant_ms: f64,
    integer_ms: f64,
}

fn bench_workload(
    kind: ModelKind,
    name: &'static str,
    family: &'static str,
    reps: usize,
    batch: usize,
) -> Entry {
    let cfg = ModelConfig {
        classes: 4,
        width: 2,
        policy: PolicyKind::MaxAbs,
        seed: 9,
    };
    let mut net = kind.build(&cfg);
    assign_mixed_ladder(&mut net);
    let mut r = rng(100);
    let x = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[batch, 3, 16, 16], &mut r);

    let fake = net.forward(&x, Mode::Eval).expect("fake-quant forward");
    let model = PackedModel::capture(&mut net, &arch::model_arch(family, cfg.classes, cfg.width))
        .expect("capture");
    let mut deployed = model.instantiate().expect("instantiate");
    let dequant = deployed
        .forward_packed(&x, PackedExec::Dequant)
        .expect("dequant forward");
    let integer = deployed
        .forward_packed(&x, PackedExec::Integer)
        .expect("integer forward");

    let dequant_bit_exact = fake.as_slice() == dequant.as_slice();
    let int_max_abs_diff = fake
        .as_slice()
        .iter()
        .zip(integer.as_slice())
        .map(|(a, b)| f64::from((a - b).abs()))
        .fold(0.0, f64::max);

    let f32_bytes: usize = model
        .layers()
        .iter()
        .map(|l| {
            4 * match &l.payload {
                ccq_infer::LayerPayload::Packed(p) => p.len(),
                ccq_infer::LayerPayload::Shadow(t) => t.len(),
            }
        })
        .sum();
    let payload_bytes = model.payload_bytes();

    let fake_ms = time_min_ms(reps, || {
        black_box(net.forward(black_box(&x), Mode::Eval).expect("fwd"));
    });
    let dequant_ms = time_min_ms(reps, || {
        black_box(
            deployed
                .forward_packed(black_box(&x), PackedExec::Dequant)
                .expect("fwd"),
        );
    });
    let integer_ms = time_min_ms(reps, || {
        black_box(
            deployed
                .forward_packed(black_box(&x), PackedExec::Integer)
                .expect("fwd"),
        );
    });

    Entry {
        workload: name,
        f32_bytes,
        payload_bytes,
        compression: f32_bytes as f64 / payload_bytes as f64,
        dequant_bit_exact,
        int_max_abs_diff,
        fake_ms,
        dequant_ms,
        integer_ms,
    }
}

/// Writes the smoke-mode demo artifact and round-trips it from disk.
fn write_demo_artifact(out_path: &str) -> String {
    let cfg = ModelConfig {
        classes: 4,
        width: 2,
        policy: PolicyKind::MaxAbs,
        seed: 9,
    };
    let mut net = ModelKind::Resnet20.build(&cfg);
    assign_mixed_ladder(&mut net);
    let model = PackedModel::capture(
        &mut net,
        &arch::model_arch("resnet20", cfg.classes, cfg.width),
    )
    .expect("capture demo");
    let demo_path = match out_path.rsplit_once('/') {
        Some((dir, _)) => format!("{dir}/demo.ccqpack"),
        None => "demo.ccqpack".to_string(),
    };
    model
        .save_atomic(std::path::Path::new(&demo_path))
        .expect("write demo artifact");
    let back = PackedModel::load_with_fallback(std::path::Path::new(&demo_path))
        .expect("demo artifact loads");
    assert_eq!(back, model, "demo artifact round-trips byte-exactly");
    demo_path
}

fn main() -> ExitCode {
    let mut out_path = "BENCH_pack.json".to_string();
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
            .unwrap_or(20)
    };
    let batch = if smoke { 2 } else { 8 };
    let parallel_feature = cfg!(feature = "parallel");
    let cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let workloads = [
        (ModelKind::Resnet20, "resnet20", "resnet20"),
        (ModelKind::Resnet18, "resnet18", "resnet18"),
        (ModelKind::Resnet50, "resnet50_style", "resnet50"),
    ];
    let mut entries: Vec<Entry> = Vec::new();
    for (kind, name, family) in workloads {
        eprintln!("packing + timing {name} ({reps} reps, batch {batch})");
        entries.push(bench_workload(kind, name, family, reps, batch));
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"host\": {{ \"cpus\": {cpus}, \"parallel_feature\": {parallel_feature}, \"reps\": {reps}, \"batch\": {batch} }},\n"
    ));
    json.push_str(&format!(
        "  \"note\": \"Mixed int8/int4/int2 ladder with one pruned layer and an f32 head. \
         dequant execution is required to be bit-exact vs the fake-quant Eval forward; integer \
         execution must stay within {INT_BOUND} max abs deviation (i32 accumulation, one f32 \
         rescale per layer).\",\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"workload\": \"{}\", \"f32_bytes\": {}, \"payload_bytes\": {}, \
             \"compression_vs_f32\": {:.3}, \"dequant_bit_exact\": {}, \
             \"integer_max_abs_diff\": {:.3e}, \"fake_quant_ms\": {:.3}, \
             \"packed_dequant_ms\": {:.3}, \"packed_integer_ms\": {:.3} }}{}\n",
            e.workload,
            e.f32_bytes,
            e.payload_bytes,
            e.compression,
            e.dequant_bit_exact,
            e.int_max_abs_diff,
            e.fake_ms,
            e.dequant_ms,
            e.integer_ms,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("{json}");
    eprintln!("wrote {out_path}");

    if smoke {
        // CI gate: the written snapshot must be sane, every workload
        // must agree, and packing must buy at least 2x memory.
        let written = std::fs::read_to_string(&out_path).expect("read back snapshot");
        if written != json {
            eprintln!("SMOKE FAIL: snapshot on disk differs from generated output");
            return ExitCode::FAILURE;
        }
        for e in &entries {
            if !e.dequant_bit_exact {
                eprintln!(
                    "SMOKE FAIL: {}: packed dequant is not bit-exact",
                    e.workload
                );
                return ExitCode::FAILURE;
            }
            if !e.int_max_abs_diff.is_finite() || e.int_max_abs_diff > INT_BOUND {
                eprintln!(
                    "SMOKE FAIL: {}: integer deviation {:.3e} exceeds {INT_BOUND:.1e}",
                    e.workload, e.int_max_abs_diff
                );
                return ExitCode::FAILURE;
            }
            if e.compression < 2.0 {
                eprintln!(
                    "SMOKE FAIL: {}: compression {:.2}x below the 2x floor",
                    e.workload, e.compression
                );
                return ExitCode::FAILURE;
            }
            if !(e.fake_ms.is_finite() && e.dequant_ms.is_finite() && e.integer_ms.is_finite()) {
                eprintln!("SMOKE FAIL: {}: non-finite timing", e.workload);
                return ExitCode::FAILURE;
            }
        }
        let demo = write_demo_artifact(&out_path);
        eprintln!("smoke ok: all workloads bit-exact, >=2x compression; demo artifact at {demo}");
    }
    ExitCode::SUCCESS
}
