//! The packed-integer convolution kernels equal the simple compositions
//! they replace, bit for bit:
//!
//! - `int_conv2d` on batch-innermost codes `[c, h, w, n]` (lowering into
//!   a reused scratch, or none for a 1×1 stride-1 unpadded layer, integer
//!   GEMM over the listed nonzero weights and one rescale epilogue per
//!   output channel) equals `int_im2col` → `int_matmul` → `acc as f32 *
//!   scale + bias`, whose `[out_ch, oh·ow·n]` matrix is the `[out_ch, oh,
//!   ow, n]` output. Each case runs several random geometries back to
//!   back through one scratch, a heavily padded layer next to an unpadded
//!   one in both orders, so a padding position left holding the previous
//!   layer's codes shows. (Both sides lower through the same row
//!   routine; that routine is held to a naive gather in
//!   `tests/conv_lowering.rs`.)
//!   The operands lie within random stated bounds, a quarter of the
//!   weights zero, so every `i16` group size of the kernel (4, 2 and 1
//!   products per lane, and plain `i32` products) runs.
//! - The output buffer the caller hands in does not matter: one filled
//!   with NaN, longer, as long as or shorter than the output, gives the
//!   bits of a fresh one, at stride 2, 1×1, with padding and on a 1×1
//!   plane.
//! - A 1×1 stride-1 unpadded layer reads its codes as the patch matrix:
//!   it does not grow the scratch.
//! - At every activation/weight width pair from 1 to 8 bits (max-abs
//!   signed and PACT unsigned activations), operands all at ±qmax give
//!   the plain `i32` product, and the kernel's `i16` group is the
//!   largest that cannot wrap: one more product of the same extremes
//!   overflows `i16`.
//! - The activation-code rounding equals `round() as i16` and the lane
//!   `max_abs` equals the serial fold, on NaN, ±inf, ±0, .5 ties,
//!   subnormals and lengths that are not a multiple of the fold's 32
//!   lanes.

use ccq_quant::grid::{act_codes, round_code, symmetric_qmax};
use ccq_quant::{BitWidth, PolicyKind};
use ccq_tensor::ops::{
    int_conv2d, int_im2col, int_matmul, CodeBounds, Conv2dGeometry, ConvTaps, IntConvScratch,
};
use ccq_tensor::{rng, Rng64, Tensor};
use proptest::prelude::*;
use rand::Rng;

/// One convolution layer: input dims `[c, h, w, n]`, geometry and output
/// channels.
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
    let n = r.gen_range(1..=3);
    Layer {
        dims: [r.gen_range(1..=4), h, w, n],
        geom: Conv2dGeometry {
            kernel_h: k,
            kernel_w: k,
            stride: if r.gen() { 1 } else { r.gen_range(2..=3) },
            padding: p,
        },
        out_ch: r.gen_range(1..=5),
    }
}

/// The largest activation code of a `bits`-wide grid: unsigned for PACT
/// (`2^b − 1`), symmetric for max-abs.
fn act_qmax(bits: u32, pact: bool) -> u32 {
    if pact {
        (1 << bits) - 1
    } else {
        symmetric_qmax(bits).unsigned_abs()
    }
}

/// Bounds of a random activation/weight width pair, now and then with
/// activation codes too wide for one product to fit `i16`.
fn random_bounds(r: &mut Rng64) -> CodeBounds {
    let act = match r.gen_range(0..9u32) {
        0 => 1000,
        b => act_qmax(b, r.gen()),
    };
    CodeBounds {
        act,
        weight: symmetric_qmax(r.gen_range(1..=8)).unsigned_abs(),
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
    let [c, h, w, n] = l.dims;
    let (oh, ow) = l.geom.output_hw(h, w).unwrap();
    let ckk = c * l.geom.kernel_h * l.geom.kernel_w;
    let len = oh * ow * n;
    let cols = int_im2col(codes, l.dims, l.geom).unwrap();
    let acc = int_matmul(weights, &cols, l.out_ch, ckk, len).unwrap();
    let mat: Vec<f32> = acc.iter().map(|&a| a as f32 * scale).collect();
    (mat.iter().enumerate())
        .map(|(i, &v)| v + bias.map_or(0.0, |b| b[i / len]))
        .collect()
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

/// Operands all at ±qmax of every width pair, through a padded 3×3
/// layer and an unpadded 1×1 one, equal the plain `i32` product.
#[test]
fn every_width_pair_at_the_extremes_equals_the_i32_product() {
    let mut r = rng(5);
    let mut scratch = IntConvScratch::default();
    let layers = [(3, 1), (1, 0)].map(|(k, p)| Layer {
        dims: [5, 4, 4, 2],
        geom: Conv2dGeometry {
            kernel_h: k,
            kernel_w: k,
            stride: 1,
            padding: p,
        },
        out_ch: 3,
    });
    for pact in [false, true] {
        for act_bits in 1..=8 {
            for weight_bits in 1..=8 {
                let bounds = CodeBounds {
                    act: act_qmax(act_bits, pact),
                    weight: symmetric_qmax(weight_bits).unsigned_abs(),
                };
                let (a, w) = (bounds.act as i16, bounds.weight as i8);
                for l in layers {
                    let [c, h, wd, n] = l.dims;
                    let ckk = c * l.geom.kernel_h * l.geom.kernel_w;
                    // Same-sign products (the largest sums), opposite-sign
                    // ones, and random signs.
                    for pattern in 0..3 {
                        let act_sign = |r: &mut Rng64| match pattern {
                            _ if pact => 1,
                            0 => 1,
                            1 => -1,
                            _ => [1, -1][r.gen_range(0..2usize)],
                        };
                        let codes: Vec<i16> =
                            (0..c * h * wd * n).map(|_| a * act_sign(&mut r)).collect();
                        let weights: Vec<i8> = (0..l.out_ch * ckk)
                            .map(|_| if pattern == 2 && r.gen() { -w } else { w })
                            .collect();
                        let taps = ConvTaps::new(&weights, l.out_ch, bounds.weight).unwrap();
                        let got = int_conv2d(
                            &codes,
                            l.dims,
                            l.geom,
                            &taps,
                            bounds,
                            1.0,
                            None,
                            &mut scratch,
                            Vec::new(),
                        )
                        .unwrap();
                        let want = reference(l, &codes, &weights, 1.0, None);
                        assert_eq!(
                            bits(got.as_slice()),
                            bits(&want),
                            "{bounds:?}, pattern {pattern}, layer {l:?}"
                        );
                    }
                }
                // The group is as large as it can be: one more product
                // of the same extremes leaves i16, up to the cap of 4.
                let group = bounds.i16_group();
                let product = i16::try_from(bounds.act * bounds.weight).unwrap();
                let sum = |g: usize| (0..g).try_fold(0i16, |s, _| s.checked_add(product));
                assert!(sum(group).is_some(), "{bounds:?}: group {group} wraps");
                if group < 4 {
                    assert_eq!(
                        sum(group + 1),
                        None,
                        "{bounds:?}: group {group} is not the largest"
                    );
                }
            }
        }
    }
}

/// The group sizes the module docs name, and the `i32` fallback.
#[test]
fn group_sizes_follow_the_bounds() {
    let group = |act, weight| CodeBounds { act, weight }.i16_group();
    assert_eq!(group(255, 127), 1);
    assert_eq!(group(127, 127), 2);
    assert_eq!(group(127, 7), 4);
    assert_eq!(group(255, 7), 4);
    assert_eq!(group(1000, 127), 0);
}

/// Codes beyond their stated bounds, or bounds that admit an `i32`
/// overflow, are refused rather than summed.
#[test]
fn codes_beyond_the_bounds_are_refused() {
    let l = Layer {
        dims: [2, 3, 3, 1],
        geom: Conv2dGeometry {
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        },
        out_ch: 2,
    };
    let codes = vec![127i16; 18];
    let weights = vec![127i8; 36];
    // The weight bound is checked when the list is built...
    let err = ConvTaps::new(&weights, l.out_ch, 126)
        .unwrap_err()
        .to_string();
    assert!(err.contains("weight code magnitude 127"), "{err}");
    let taps = ConvTaps::new(&weights, l.out_ch, 127).unwrap();
    let mut scratch = IntConvScratch::default();
    let mut run = |codes: &[i16], act, weight| {
        int_conv2d(
            codes,
            l.dims,
            l.geom,
            &taps,
            CodeBounds { act, weight },
            1.0,
            None,
            &mut scratch,
            Vec::new(),
        )
    };
    assert!(run(&codes, 127, 127).is_ok());
    let err = run(&codes, 64, 127).unwrap_err().to_string();
    assert!(err.contains("activation code magnitude 127"), "{err}");
    // ...and again against the bound each call states.
    let err = run(&codes, 127, 64).unwrap_err().to_string();
    assert!(err.contains("weight code magnitude 127"), "{err}");
    let err = run(&codes, 127, u32::MAX).unwrap_err().to_string();
    assert!(err.contains("overflow an i32"), "{err}");
    // A list of another layer's shape is refused.
    let other = ConvTaps::new(&weights[..27], 3, 127).unwrap();
    let err = int_conv2d(
        &codes,
        l.dims,
        l.geom,
        &other,
        CodeBounds {
            act: 127,
            weight: 127,
        },
        1.0,
        None,
        &mut IntConvScratch::default(),
        Vec::new(),
    );
    assert!(err.is_err());
}

/// An output buffer holding NaN, longer, as long as or shorter than the
/// output, gives the bits of a fresh one: every output element is
/// written.
#[test]
fn stale_output_buffers_give_the_fresh_bits() {
    let geom = |k, stride, padding| Conv2dGeometry {
        kernel_h: k,
        kernel_w: k,
        stride,
        padding,
    };
    let layers = [
        ([3, 7, 7, 2], geom(3, 2, 1)), // stride 2, padded
        ([4, 5, 6, 2], geom(1, 1, 0)), // 1×1
        ([2, 4, 4, 1], geom(3, 1, 2)), // padding wider than "same"
        ([2, 3, 3, 3], geom(3, 1, 0)), // a 1×1 output plane
        ([3, 1, 1, 2], geom(1, 1, 0)), // a 1×1 input plane
    ];
    let mut r = rng(17);
    let mut scratch = IntConvScratch::default();
    for (k, (dims, geom)) in layers.into_iter().enumerate() {
        let l = Layer {
            dims,
            geom,
            out_ch: 3,
        };
        let [c, h, w, n] = dims;
        let ckk = c * geom.kernel_h * geom.kernel_w;
        let codes: Vec<i16> = (0..c * h * w * n)
            .map(|_| r.gen_range(-127..=127))
            .collect();
        let weights: Vec<i8> = (0..l.out_ch * ckk)
            .map(|_| if r.gen() { 0 } else { r.gen_range(-7..=7) })
            .collect();
        let taps = ConvTaps::new(&weights, l.out_ch, 7).unwrap();
        let bounds = CodeBounds {
            act: 127,
            weight: 7,
        };
        let bias: Vec<f32> = (0..l.out_ch).map(|_| r.gen_range(-1.0f32..1.0)).collect();
        let bias = (k % 2 == 0).then_some(&bias[..]);
        let mut conv = |out| {
            int_conv2d(
                &codes,
                dims,
                geom,
                &taps,
                bounds,
                1e-3,
                bias,
                &mut scratch,
                out,
            )
            .unwrap()
        };
        let fresh = conv(Vec::new());
        assert_eq!(
            bits(fresh.as_slice()),
            bits(&reference(l, &codes, &weights, 1e-3, bias))
        );
        let len = fresh.len();
        for stale in [
            vec![f32::NAN; len],
            vec![f32::NAN; len + 5],
            vec![f32::NAN; len / 2],
        ] {
            let got = conv(stale);
            assert_eq!(got.shape(), fresh.shape(), "layer {k}");
            assert_eq!(bits(got.as_slice()), bits(fresh.as_slice()), "layer {k}");
        }
    }
}

/// A 1×1 stride-1 unpadded layer lowers nothing: a fresh scratch stays
/// empty, and one that a padded layer grew keeps its size.
#[test]
fn pointwise_layers_do_not_grow_the_patch_matrix() {
    let geom = |k, stride, padding| Conv2dGeometry {
        kernel_h: k,
        kernel_w: k,
        stride,
        padding,
    };
    let bounds = CodeBounds {
        act: 127,
        weight: 7,
    };
    let mut r = rng(23);
    let mut scratch = IntConvScratch::default();
    let mut capacities = Vec::new();
    for (dims, geom) in [
        ([6, 8, 8, 4], geom(1, 1, 0)),
        ([2, 3, 3, 2], geom(3, 1, 1)),
        ([6, 8, 8, 4], geom(1, 1, 0)),
    ] {
        let l = Layer {
            dims,
            geom,
            out_ch: 5,
        };
        let [c, h, w, n] = dims;
        let ckk = c * geom.kernel_h * geom.kernel_w;
        let codes: Vec<i16> = (0..c * h * w * n)
            .map(|_| r.gen_range(-127..=127))
            .collect();
        let weights: Vec<i8> = (0..l.out_ch * ckk).map(|_| r.gen_range(-7..=7)).collect();
        let taps = ConvTaps::new(&weights, l.out_ch, 7).unwrap();
        let got = int_conv2d(
            &codes,
            dims,
            geom,
            &taps,
            bounds,
            1e-2,
            None,
            &mut scratch,
            Vec::new(),
        )
        .unwrap();
        assert_eq!(
            bits(got.as_slice()),
            bits(&reference(l, &codes, &weights, 1e-2, None))
        );
        capacities.push(scratch.patch_capacity());
    }
    let padded = 2 * 9 * 3 * 3 * 2;
    assert_eq!(capacities[0], 0, "a 1×1 layer lowered its input");
    assert!(capacities[1] >= padded);
    assert_eq!(capacities[2], capacities[1], "a 1×1 layer grew the scratch");
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
            let [c, h, w, n] = l.dims;
            let ckk = c * l.geom.kernel_h * l.geom.kernel_w;
            let bounds = random_bounds(&mut r);
            let (a, wm) = (bounds.act as i16, bounds.weight as i8);
            // Nonzero codes, so a stale padding entry cannot read as zero.
            let codes: Vec<i16> = (0..c * h * w * n)
                .map(|_| if r.gen() { r.gen_range(1..=a) } else { r.gen_range(-a..=-1) })
                .collect();
            // A quarter of the weights zero, so the kernel skips some taps.
            let weights: Vec<i8> = (0..l.out_ch * ckk)
                .map(|_| if r.gen_range(0..4) == 0 { 0 } else { r.gen_range(-wm..=wm) })
                .collect();
            let scale = r.gen_range(-1e-2f32..1e-2);
            let bias: Option<Vec<f32>> =
                r.gen::<bool>().then(|| (0..l.out_ch).map(|_| r.gen_range(-1.0f32..1.0)).collect());
            let taps = ConvTaps::new(&weights, l.out_ch, bounds.weight).unwrap();
            let got = int_conv2d(
                &codes, l.dims, l.geom, &taps, bounds, scale, bias.as_deref(), &mut scratch, Vec::new(),
            )
            .unwrap();
            let (oh, ow) = l.geom.output_hw(h, w).unwrap();
            prop_assert_eq!(got.shape(), &[l.out_ch, oh, ow, n][..]);
            let want = reference(l, &codes, &weights, scale, bias.as_deref());
            prop_assert_eq!(bits(got.as_slice()), bits(&want), "layer {:?}, {:?}", l, bounds);
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
