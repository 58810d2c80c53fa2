//! # torchgt-perf
//!
//! GPU performance model for the TorchGT reproduction. The paper's absolute
//! numbers come from RTX 3090 / A100 clusters that are not available here;
//! this crate converts the *measured* layout statistics of the Rust
//! implementation (attention-pattern nonzeros, run lengths, communication
//! volumes) into simulated wall-clock on the published hardware specs:
//!
//! * [`gpu`] — device specifications (3090, A100) and the Auto Tuner's `k`
//!   formula;
//! * [`cache`] — a set-associative LRU cache simulator driving the sub-block
//!   size (`d_b`) tuning of Figure 6;
//! * [`kernels`] — roofline-style kernel time models (dense / flash /
//!   sparse / cluster-sparse attention, GEMM, FFN);
//! * [`memory`] — activation-memory estimation, OOM detection, maximum
//!   sequence length (Figure 9(a));
//! * [`epoch`] — per-iteration and per-epoch composition (Tables V–VI,
//!   Figures 2, 7, 9(b), 12).

pub mod cache;
pub mod epoch;
pub mod gpu;
pub mod kernels;
pub mod memory;

pub use cache::{simulate_subblock_kernel, tune_db, Cache, KernelProfile};
pub use epoch::{
    all_to_all_traffic, epoch_cost, iteration_cost, AllToAllTraffic, IterationCost, StepSpec,
};
pub use gpu::GpuSpec;
pub use memory::{fits, max_seq_len, memory_per_gpu, ModelShape};
