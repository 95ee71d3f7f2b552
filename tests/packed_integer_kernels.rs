//! The packed-integer convolution kernels equal the simple compositions
//! they replace, bit for bit:
//!
//! - `int_conv2d` (lowering into a reused scratch, integer GEMM and one
//!   rescale-and-reorder epilogue) equals `int_im2col` → `int_matmul` →
//!   `acc as f32 * scale` → NCHW reorder adding the bias. Each case runs
//!   several random geometries back to back through one scratch, a
//!   heavily padded layer next to an unpadded one in both orders, so a
//!   padding position left holding the previous layer's codes shows.
//!   (Both sides lower through the same row routine; that routine is
//!   held to a naive gather in `tests/conv_lowering.rs`.)
//! - The activation-code rounding equals `round() as i16` and the lane
//!   `max_abs` equals the serial fold, on NaN, ±inf, ±0, .5 ties,
//!   subnormals and lengths that are not a multiple of the fold's 32
//!   lanes.

use ccq_quant::grid::{act_codes, round_code};
use ccq_quant::{BitWidth, PolicyKind};
use ccq_tensor::ops::{int_conv2d, int_im2col, int_matmul, Conv2dGeometry, IntConvScratch};
use ccq_tensor::{rng, Rng64, Tensor};
use proptest::prelude::*;
use rand::Rng;

/// One convolution layer: input dims, geometry and output channels.
#[derive(Debug, Clone, Copy)]
struct Layer {
    dims: [usize; 4],
    geom: Conv2dGeometry,
    out_ch: usize,
}

/// A random layer whose padding lies in `padding` and whose spatial
/// side lies in `side`; the kernel always fits the padded input. Half
/// the kernels are `2p + 1` wide and half the strides are 1, so "same"
/// convolutions, which the lowering copies as whole runs of rows, come
/// up often.
fn layer(
    r: &mut Rng64,
    padding: std::ops::RangeInclusive<usize>,
    side: std::ops::RangeInclusive<usize>,
) -> Layer {
    let p = r.gen_range(padding);
    let (h, w) = (r.gen_range(side.clone()), r.gen_range(side));
    let fit = (h.min(w) + 2 * p).min(9);
    let k = if r.gen() && 2 * p < fit {
        2 * p + 1
    } else {
        r.gen_range(1..=fit)
    };
    Layer {
        dims: [r.gen_range(1..=3), r.gen_range(1..=4), h, w],
        geom: Conv2dGeometry {
            kernel_h: k,
            kernel_w: k,
            stride: if r.gen() { 1 } else { r.gen_range(2..=3) },
            padding: p,
        },
        out_ch: r.gen_range(1..=5),
    }
}

/// The unfused composition the fused kernel replaces.
fn reference(
    l: Layer,
    codes: &[i16],
    weights: &[i8],
    scale: f32,
    bias: Option<&[f32]>,
) -> Vec<f32> {
    let [n, c, h, w] = l.dims;
    let (oh, ow) = l.geom.output_hw(h, w).unwrap();
    let ckk = c * l.geom.kernel_h * l.geom.kernel_w;
    let plane = oh * ow;
    let cols = int_im2col(codes, l.dims, l.geom).unwrap();
    let acc = int_matmul(weights, &cols, l.out_ch, ckk, n * plane).unwrap();
    let mat: Vec<f32> = acc.iter().map(|&a| a as f32 * scale).collect();
    let mut out = vec![f32::NAN; n * l.out_ch * plane];
    for oi in 0..l.out_ch {
        let b = bias.map_or(0.0, |b| b[oi]);
        for ni in 0..n {
            for p in 0..plane {
                out[(ni * l.out_ch + oi) * plane + p] = mat[oi * n * plane + ni * plane + p] + b;
            }
        }
    }
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Values that stress a float → integer conversion or a max fold.
const SPECIAL: [f32; 22] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    0.5,
    -0.5,
    1.5,
    2.5,
    -2.5,
    254.5,
    -126.5,
    0.499_999_97,
    -0.499_999_97,
    32_767.5,
    -32_768.5,
    1e30,
    -1e30,
    f32::MIN_POSITIVE,
    -f32::MIN_POSITIVE,
    1e-45,  // smallest subnormal
    -1e-40, // a negative subnormal
];

/// A value from [`SPECIAL`], a tie `k + 0.5`, an arbitrary bit pattern
/// (NaNs with payloads and subnormals included) or a plain small float.
fn value(r: &mut Rng64) -> f32 {
    match r.gen_range(0..4u32) {
        0 => SPECIAL[r.gen_range(0..SPECIAL.len())],
        1 => r.gen_range(-300i32..300) as f32 + 0.5,
        2 => f32::from_bits(r.gen::<u32>()),
        _ => r.gen_range(-3.0f32..3.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fused_conv_equals_the_unfused_composition(seed in 0u64..u64::MAX) {
        let mut r = rng(seed);
        let padded = layer(&mut r, 2..=4, 4..=9);
        let plain = layer(&mut r, 0..=0, 1..=5);
        let mut scratch = IntConvScratch::default();
        for l in [plain, padded, plain, padded, layer(&mut r, 0..=3, 1..=9)] {
            let [n, c, h, w] = l.dims;
            let ckk = c * l.geom.kernel_h * l.geom.kernel_w;
            // Nonzero codes, so a stale padding entry cannot read as zero.
            let codes: Vec<i16> = (0..n * c * h * w)
                .map(|_| if r.gen() { r.gen_range(1..=255) } else { r.gen_range(-127..=-1) })
                .collect();
            let weights: Vec<i8> = (0..l.out_ch * ckk).map(|_| r.gen_range(-127..=127)).collect();
            let scale = r.gen_range(-1e-2f32..1e-2);
            let bias: Option<Vec<f32>> =
                r.gen::<bool>().then(|| (0..l.out_ch).map(|_| r.gen_range(-1.0f32..1.0)).collect());
            let got = int_conv2d(
                &codes, l.dims, l.geom, &weights, l.out_ch, scale, bias.as_deref(), &mut scratch,
            )
            .unwrap();
            let (oh, ow) = l.geom.output_hw(h, w).unwrap();
            prop_assert_eq!(got.shape(), &[n, l.out_ch, oh, ow][..]);
            let want = reference(l, &codes, &weights, scale, bias.as_deref());
            prop_assert_eq!(bits(got.as_slice()), bits(&want), "layer {:?}", l);
        }
    }

    #[test]
    fn activation_codes_round_like_the_cast(seed in 0u64..u64::MAX) {
        let mut r = rng(seed);
        for _ in 0..64 {
            let y = value(&mut r);
            prop_assert_eq!(round_code(y), y.round() as i16, "y = {:e} ({:#x})", y, y.to_bits());
        }
        // Lengths around the 32-lane fold, most not a multiple of 32.
        let len = r.gen_range(0..100);
        let x: Vec<f32> = (0..len).map(|_| value(&mut r)).collect();
        let serial = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let t = Tensor::from_vec(x.clone(), &[len]).unwrap();
        prop_assert_eq!(t.max_abs().to_bits(), serial.to_bits(), "x = {:?}", x);

        // Whole activation grids against the cast-based expressions.
        let width = r.gen_range(1..=8u32);
        let alpha = [0.0f32, 1e-3, 0.7, 6.0][r.gen_range(0..4usize)];
        let pact = act_codes(PolicyKind::Pact, alpha, BitWidth::of(width), &t).unwrap();
        let a = alpha.max(f32::EPSILON);
        let steps = ((1u64 << width) - 1) as f32;
        let want: Vec<i16> = x.iter().map(|&v| (v.clamp(0.0, a) / a * steps).round() as i16).collect();
        prop_assert_eq!(pact.codes, want);
        let maxabs = act_codes(PolicyKind::MaxAbs, 0.0, BitWidth::of(width), &t).unwrap();
        let want: Vec<i16> = if serial <= 0.0 {
            vec![0; len]
        } else if width == 1 {
            x.iter().map(|&v| if v >= 0.0 { 1 } else { -1 }).collect()
        } else {
            let s = ((1u64 << (width - 1)) - 1) as f32;
            x.iter().map(|&v| ((v / serial).clamp(-1.0, 1.0) * s).round() as i16).collect()
        };
        prop_assert_eq!(maxabs.codes, want);
    }
}
