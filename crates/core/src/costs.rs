//! The analytic cost primitives of the step model: `step.rs`, `tp.rs`,
//! `cp.rs` and `pp/schedule.rs` price kernels, shards and bubbles
//! through these shared closed-form expressions (re-exported from
//! [`numerics::costs`]).

pub use numerics::costs::{
    attention_pair_flops, bubble_ratio, kernel_busy_s, linear_shard, ring_transfer_s,
    tflops_per_gpu, transfer_s,
};
