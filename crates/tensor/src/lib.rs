//! # torchgt-tensor
//!
//! A self-contained dense-tensor and training substrate for the TorchGT
//! reproduction.
//!
//! The TorchGT paper builds on PyTorch 2.1 + CUDA. This crate replaces that
//! substrate with a small, deterministic, CPU-parallel tensor library (its
//! threads come from the `torchgt-compat` pool shim) that provides exactly
//! what graph-transformer training needs:
//!
//! * a row-major 2-D [`Tensor`] of `f32` with BLAS-free but parallel matmul,
//! * differentiable building blocks with explicit, hand-written backward
//!   passes ([`Linear`], [`LayerNorm`], [`Dropout`], [`FeedForward`],
//!   [`Relu`], [`Embedding`]; GELU and row-wise softmax are [`ops`]
//!   kernels), each with one forward and one backward — row-tile methods a
//!   fused caller drives, and for the whole-tensor layers a pass through the
//!   caller's [`Workspace`],
//! * learnable parameters with gradient buffers and an [`Adam`] optimizer,
//! * emulated bfloat16 rounding ([`bf16`]) used to reproduce the paper's
//!   FP32-vs-BF16 accuracy comparison (Table VII),
//! * an allocation-free execution engine: a [`Workspace`] scratch-buffer
//!   arena, `_into` output-parameter kernels in [`ops`], and zero-copy
//!   [`TensorView`] column blocks over packed multi-head tensors.
//!
//! Everything is seeded explicitly, so training runs are reproducible
//! bit-for-bit on the same machine.

pub mod backend;
pub mod bf16;
pub mod init;
pub mod layers;
pub mod ops;
pub mod optim;
pub mod param;
pub mod rng;
pub mod tensor;
pub mod view;
pub mod workspace;

pub use backend::Backend;
pub use bf16::{bf16_round, Precision};
pub use layers::{Dropout, Embedding, FeedForward, LayerNorm, Linear, Relu};
pub use optim::{Adam, AdamConfig, Optimizer};
pub use param::Param;
pub use tensor::Tensor;
pub use view::{MatRef, TensorView};
pub use workspace::{Workspace, WorkspaceStats};

/// Numerical-gradient checking utilities shared by the unit tests of this
/// crate and by downstream model tests.
pub mod gradcheck {
    use crate::tensor::Tensor;

    /// Central-difference numerical gradient of `f` with respect to `x`.
    ///
    /// `f` must be a pure function of its input. Used in tests to validate the
    /// hand-written backward passes.
    pub fn numerical_grad<F>(x: &Tensor, mut f: F, eps: f32) -> Tensor
    where
        F: FnMut(&Tensor) -> f32,
    {
        let mut grad = Tensor::zeros(x.rows(), x.cols());
        let mut probe = x.clone();
        for i in 0..x.len() {
            let orig = probe.data()[i];
            probe.data_mut()[i] = orig + eps;
            let plus = f(&probe);
            probe.data_mut()[i] = orig - eps;
            let minus = f(&probe);
            probe.data_mut()[i] = orig;
            grad.data_mut()[i] = (plus - minus) / (2.0 * eps);
        }
        grad
    }

    /// Maximum absolute difference between two tensors, for gradient-check
    /// assertions.
    pub fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
        assert_eq!(a.shape(), b.shape());
        a.data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }
}
