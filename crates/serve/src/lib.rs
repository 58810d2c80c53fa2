//! # torchgt-serve
//!
//! The inference serving layer: everything between "training converged" and
//! "answer a user's query in milliseconds".
//!
//! * [`quant`] — per-row symmetric int8/int16 post-training quantization
//!   with an integer dot-product fast path (scalar + AVX2);
//! * [`frozen`] — the versioned, CRC-guarded `TGTF` deployable artifact
//!   ([`FrozenModel`]), ~12x smaller than the `TGTS` training snapshot it
//!   is frozen from;
//! * [`freeze`] — the calibration pass and accuracy-drop gate
//!   ([`Freezable::freeze`] rejects a freeze whose top-1 accuracy drops
//!   more than the configured tolerance vs the f32 reference);
//! * [`exec`] — [`FrozenExecutor`], a forward-only engine that dequantizes
//!   into a [`torchgt_tensor::Workspace`] arena, routes through the SIMD
//!   kernel backends, runs the classifier head in int8, and has each
//!   transformer block compute only the rows the next one reads;
//! * [`batch`] — per-query ego-subgraph extraction and block-diagonal
//!   micro-batch packing over [`torchgt_graph::pack`];
//! * [`server`] — [`ServeLoop`], a bounded-queue request loop that
//!   micro-batches concurrent queries under a latency budget and reports
//!   p50/p99 latency, queue depth, and throughput through torchgt-obs;
//! * [`zipf`] — the seeded Zipf sampler the load-generator bench drives
//!   traffic with.

pub mod batch;
pub mod exec;
pub mod freeze;
pub mod frozen;
pub mod quant;
pub mod server;
pub mod zipf;

pub use batch::{ego_subgraph, PackedQueryBatch};
pub use exec::FrozenExecutor;
pub use freeze::{CalibSet, Freezable, FreezeError, FreezeOptions};
pub use frozen::{DatasetRef, FrozenModel, ModelSpec};
pub use quant::{QuantScheme, QuantTensor};
pub use server::{
    Overloaded, Prediction, Query, ServeConfig, ServeLoop, ServeReply, ServeStats, ShedReason,
    ShutdownHandle,
};
pub use zipf::Zipf;
