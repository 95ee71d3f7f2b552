//! Numeric kernels: matrix products, convolution lowering, reductions.
//!
//! All kernels operate on plain contiguous buffers; none allocate more than
//! their output. The `bench_perf` snapshot in `ccq-bench` times these hot
//! paths: `matmul` directly, the conv lowering through whole forwards.

mod conv;
mod intmm;
mod matmul;
mod reduce;

pub use conv::{col2im, conv_output_size, im2col, im2col_chwn, Conv2dGeometry};
pub use intmm::{
    int_accumulator_safe, int_conv2d, int_im2col, int_matmul, int_matmul_a_bt, CodeBounds,
    ConvTaps, IntConvScratch,
};
pub use matmul::{matmul, matmul_a_bt, matmul_at_b, transpose2d, transpose_into};
pub use reduce::{channel_stats, log_softmax_rows, softmax_rows, sum_axis0, ChannelStats};
