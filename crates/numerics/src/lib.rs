//! # numerics
//!
//! Real-arithmetic substrate for the paper's §6.2 numerical-debugging
//! methodology: software BF16, GEMMs with explicit accumulation orders,
//! CPU softmax attention with document masks (direct, blockwise/ring,
//! and all-gather-CP variants), gradient-reduction orders, the
//! matched-order bitwise-parity decision procedure, and a miniature
//! training loop demonstrating why Llama 3 accumulates gradients in
//! FP32.
//!
//! The crate also hosts the shared closed-form cost primitives of the
//! collective and step models ([`costs`]).
//!
//! ```
//! use numerics::bf16::Bf16;
//! // The §6.2 hazard in one line: BF16 swallows small addends.
//! assert_eq!((Bf16::from_f32(256.0) + Bf16::from_f32(1.0)).to_f32(), 256.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attention;
pub mod bf16;
pub mod costs;
pub mod gemm;
pub mod parity;
pub mod reduce;
pub mod tensor;
pub mod training;

pub use bf16::Bf16;
pub use gemm::GemmPrecision;
pub use parity::{diagnose, Diagnosis};
pub use tensor::Matrix;
