//! `infer`: one client sending fixed-size batches through packed
//! integer execution, over a fixed rotation of three deployed models.
//!
//! Set-up builds seeded ResNet20, ResNet18 and ResNet50-style nets with
//! mixed int8/int4/int2 weights, packs each, saves it as a `CCQPACK`
//! artifact, loads it back and instantiates it. A request is one
//! `forward_packed(Integer)` call on one seeded batch; throughput counts
//! samples.
//!
//! Timings come from the fastest tenth of the window's rotations. On a
//! shared host this workload runs in two states that last seconds each,
//! one about 1.5× slower than the other, and a run's mix of the two
//! moves its whole-window figures far more than any bound a change
//! could be held to. The fastest rotations measure the program with its
//! cores to itself. The whole-window figures go to stderr.
//!
//! Output check, after the timed window, for every (model, batch) pair
//! sent: packed dequant execution equals the fake-quant forward bit for
//! bit, integer execution stays within [`INT_BOUND`] (per unit of logit
//! range) of it, and every request for the pair returned the same bits.

use crate::measure::{self, fnv1a, Cpu};
use crate::modules::{self, PackProbe};
use crate::report::{self, RunResult, Slice, Window};
use crate::trace::Tracer;
use crate::Opts;
use ccq_infer::{arch, PackedModel};
use ccq_models::{ModelConfig, ModelKind};
use ccq_nn::{Mode, Network, PackedExec};
use ccq_quant::{BitWidth, PolicyKind, QuantSpec};
use ccq_tensor::{rng, Init, Tensor};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The model rotation: model kind and architecture family.
pub const MODELS: [(ModelKind, &str); 3] = [
    (ModelKind::Resnet20, "resnet20"),
    (ModelKind::Resnet18, "resnet18"),
    (ModelKind::Resnet50, "resnet50"),
];
/// Output classes.
pub const CLASSES: usize = 10;
/// Base channel width.
pub const WIDTH: usize = 4;
/// Image side in pixels.
pub const IMAGE: usize = 16;
/// Samples per request.
pub const BATCH: usize = 8;
/// Distinct seeded input batches.
pub const INPUTS: usize = 6;
/// Requests per slice: one whole rotation, every model on every batch.
pub const CYCLE: usize = MODELS.len() * INPUTS;
/// Share of a window's slices, fastest first, that its timings come from.
pub const FAST_SHARE: f64 = 0.1;
/// Set-up repetitions per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 25;
/// Largest allowed |integer − fake-quant| logit deviation per unit of
/// logit range. The packed-inference snapshot gate pins 1e-1 absolute on
/// its own nets; here it is applied as `INT_BOUND × max(1, max |logit|)`
/// because untrained seeded ResNets reach logits of ~70, where the
/// integer path deviates by up to ~2.6% of the range (1.7 absolute)
/// while agreeing on every top-1 class. See `README.md`.
pub const INT_BOUND: f64 = 1e-1;

/// One deployed model of the rotation.
pub struct Deployed {
    /// The fake-quant net it was packed from (the reference).
    pub reference: Network,
    /// The net instantiated from the artifact read back from disk.
    pub packed: Network,
    /// Its architecture string.
    pub arch: String,
    /// Artifact weight payload bytes.
    pub payload_bytes: usize,
    /// `f32` bytes the same weights take.
    pub f32_bytes: usize,
}

/// Mixed weight widths: the quantizable layers but the head cycle
/// through 8, 4 and 2 bits; activations stay at 8; the head stays full
/// precision. The pattern is fixed (the weights are seeded), so
/// `compression_x` is the same at every seed.
fn assign_ladder(net: &mut Network) {
    let n = net.quant_layer_count();
    for i in 0..n {
        let spec = if i + 1 == n {
            QuantSpec::full_precision(PolicyKind::MaxAbs)
        } else {
            QuantSpec::new(
                PolicyKind::MaxAbs,
                BitWidth::of([8, 4, 2][i % 3]),
                BitWidth::of(8),
            )
        };
        net.set_quant_spec(i, spec);
    }
}

/// Builds, packs, saves, reloads and instantiates the rotation under
/// `dir`.
///
/// # Errors
///
/// A packing, I/O or decoding error, or an artifact that does not read
/// back identical.
pub fn setup(seed: u64, dir: &Path) -> Result<Vec<Deployed>, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for (k, (kind, family)) in MODELS.iter().enumerate() {
        let mut reference = kind.build(&ModelConfig {
            classes: CLASSES,
            width: WIDTH,
            policy: PolicyKind::MaxAbs,
            seed: seed.wrapping_add(k as u64),
        });
        assign_ladder(&mut reference);
        let arch = arch::model_arch(family, CLASSES, WIDTH);
        let model = PackedModel::capture(&mut reference, &arch).map_err(|e| e.to_string())?;
        let path = dir.join(format!("{family}.ccqpack"));
        model.save_atomic(&path).map_err(|e| e.to_string())?;
        let back = PackedModel::load_with_fallback(&path).map_err(|e| e.to_string())?;
        if back != model {
            return Err(format!("{family}: artifact does not read back identical"));
        }
        let packed = back.instantiate().map_err(|e| e.to_string())?;
        let f32_bytes = model
            .layers()
            .iter()
            .map(|l| {
                4 * match &l.payload {
                    ccq_infer::LayerPayload::Packed(p) => p.len(),
                    ccq_infer::LayerPayload::Shadow(t) => t.len(),
                }
            })
            .sum();
        out.push(Deployed {
            reference,
            packed,
            arch,
            payload_bytes: model.payload_bytes(),
            f32_bytes,
        });
    }
    Ok(out)
}

/// The seeded input batches.
pub fn inputs(seed: u64) -> Vec<Tensor> {
    let mut r = rng(seed ^ 0x1bfe);
    (0..INPUTS)
        .map(|_| Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[BATCH, 3, IMAGE, IMAGE], &mut r))
        .collect()
}

struct Outcome {
    window: Window,
    top1_agreement: f64,
}

/// Sends whole rotations, one slice each, until `seconds` passed and
/// the fastest [`FAST_SHARE`] of them holds `min_requests`, then checks
/// every (model, batch) pair that was sent.
fn closed_loop(
    models: &mut [Deployed],
    xs: &[Tensor],
    seconds: f64,
    min_requests: usize,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let mut w = Window::default();
    let mut sent: Vec<((usize, usize), u64)> = Vec::new();
    let mut first: BTreeMap<(usize, usize), Tensor> = BTreeMap::new();
    let cpu0 = Cpu::now();
    let t0 = Instant::now();
    loop {
        let (began, cpu_began) = (Instant::now(), measure::process_cpu_ms());
        let mut latencies_ms = Vec::with_capacity(CYCLE);
        for i in 0..CYCLE {
            let key = (i % models.len(), i / models.len());
            let start = Instant::now();
            tracer.next_request();
            let y = tracer
                .span("nn.forward_packed_integer", || {
                    models[key.0]
                        .packed
                        .forward_packed(&xs[key.1], PackedExec::Integer)
                })
                .map_err(|e| e.to_string())?;
            latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            w.attempted += 1;
            sent.push((key, bits_digest(&y)));
            first.entry(key).or_insert(y);
        }
        w.slices.push(Slice {
            wall_s: began.elapsed().as_secs_f64(),
            work: (CYCLE * BATCH) as f64,
            cpu_ms: measure::process_cpu_ms() - cpu_began,
            latencies_ms,
        });
        if t0.elapsed().as_secs_f64() >= seconds
            && report::fast_count(w.slices.len(), FAST_SHARE) * CYCLE >= min_requests
        {
            break;
        }
    }
    w.cpu = Cpu::now().since(cpu0);
    eprintln!("infer: {}", w.describe());

    let (mut agree, mut total) = (0usize, 0usize);
    let mut passed = BTreeMap::new();
    for (&(m, b), integer) in &first {
        let d = &mut models[m];
        let fake = d
            .reference
            .forward(&xs[b], Mode::Eval)
            .map_err(|e| e.to_string())?;
        let dequant = d
            .packed
            .forward_packed(&xs[b], PackedExec::Dequant)
            .map_err(|e| e.to_string())?;
        let exact = fake.as_slice() == dequant.as_slice();
        let worst = fake
            .as_slice()
            .iter()
            .zip(integer.as_slice())
            .map(|(a, b)| f64::from((a - b).abs()))
            .fold(0.0, f64::max);
        let (a, n) = top1_agreement(&fake, integer);
        agree += a;
        total += n;
        let range = fake.as_slice().iter().fold(1.0f32, |r, v| r.max(v.abs()));
        let within = worst <= INT_BOUND * f64::from(range);
        passed.insert((m, b), (exact && within, bits_digest(integer)));
    }
    w.ok = sent
        .iter()
        .filter(|(key, digest)| passed.get(key).is_some_and(|&(ok, d)| ok && d == *digest))
        .count() as u64;
    Ok(Outcome {
        window: w,
        top1_agreement: agree as f64 / total.max(1) as f64,
    })
}

fn bits_digest(t: &Tensor) -> u64 {
    let bytes: Vec<u8> = t
        .as_slice()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

/// Samples whose arg-max class agrees between `a` and `b` (both
/// `[batch, classes]`), and the sample count.
fn top1_agreement(a: &Tensor, b: &Tensor) -> (usize, usize) {
    let classes = a.shape()[1];
    let argmax = |row: &[f32]| {
        row.iter()
            .enumerate()
            .fold((0, f32::NEG_INFINITY), |best, (i, &v)| {
                if v > best.1 {
                    (i, v)
                } else {
                    best
                }
            })
            .0
    };
    let rows = a
        .as_slice()
        .chunks(classes)
        .zip(b.as_slice().chunks(classes));
    let n = a.shape()[0];
    (rows.filter(|(x, y)| argmax(x) == argmax(y)).count(), n)
}

fn compression(models: &[Deployed]) -> f64 {
    measure::mean(
        &models
            .iter()
            .map(|d| d.f32_bytes as f64 / d.payload_bytes as f64)
            .collect::<Vec<_>>(),
    )
}

/// The untraced end-to-end run.
///
/// # Errors
///
/// A set-up or forward error, as text.
pub fn run(opts: &Opts) -> Result<RunResult, String> {
    let mut setup_s = Vec::new();
    let mut models = Vec::new();
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        models = setup(opts.seed, &opts.work_dir.join(format!("models-{rep}")))?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let xs = inputs(opts.seed);
    let out = closed_loop(
        &mut models,
        &xs,
        opts.seconds,
        report::MIN_REQUESTS,
        &mut Tracer::new(false),
    )?;
    let w = out.window.fastest(FAST_SHARE);
    Ok(RunResult {
        correct: w.ok == w.attempted,
        attempted: w.attempted,
        failed: w.attempted - w.ok,
        metrics: report::end_to_end(&setup_s, &w, out.top1_agreement, compression(&models)),
    })
}

/// The traced run: half the time untraced, half with forward spans,
/// then the deploy-path probes on every model of the rotation and the
/// shared probes.
///
/// # Errors
///
/// A set-up, forward or probe error, as text.
pub fn run_traced(opts: &Opts) -> Result<RunResult, String> {
    let mut models = setup(opts.seed, &opts.work_dir.join("models"))?;
    let xs = inputs(opts.seed);
    let half = opts.seconds / 2.0;
    let mut tracer = Tracer::new(false);
    let plain = closed_loop(
        &mut models,
        &xs,
        half,
        crate::MIN_TRACED_REQUESTS,
        &mut tracer,
    )?;
    tracer.set_enabled(true);
    let traced = closed_loop(
        &mut models,
        &xs,
        half,
        crate::MIN_TRACED_REQUESTS,
        &mut tracer,
    )?;

    let packs = models
        .iter()
        .map(|d| modules::pack_probe(&d.reference, &d.arch, &xs[0], crate::PROBE_REPS))
        .collect::<Result<Vec<PackProbe>, String>>()?;
    crate::traced_result(
        opts,
        &plain.window.fastest(FAST_SHARE),
        &traced.window.fastest(FAST_SHARE),
        &tracer,
        modules::mean_pack(&packs),
    )
}
