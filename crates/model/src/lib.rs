//! # torchgt-model
//!
//! Graph-transformer models and GNN baselines on the `torchgt-tensor`
//! substrate:
//!
//! * [`api`] — the [`SequenceModel`] trait the trainers run (each model
//!   reports its own shape), and [`Arch`], the one record of a graph
//!   transformer's architecture: the only code that builds a model from
//!   its family, with [`ModelKind`] the only spelling of the family names;
//! * [`attention`] — dense / flash-tiled / topology-sparse attention kernels
//!   with hand-written backward passes;
//! * [`mha`] + [`block`] — multi-head attention and pre-LN transformer
//!   blocks with a pluggable attention pattern;
//! * [`encodings`] — Graphormer's centrality + spatial encodings and GT's
//!   Laplacian positional encodings;
//! * [`graphormer`], [`gt`] — the paper's two evaluation models (Table IV);
//! * [`gnn`] — GCN and GAT baselines (Table I);
//! * [`sampled`] — a NodeFormer-style sampling baseline (Figure 1);
//! * [`loss`] — cross-entropy / MAE losses and accuracy metrics.

pub mod api;
pub mod attention;
pub mod block;
pub mod encodings;
pub mod gnn;
pub mod graphormer;
pub mod gt;
pub mod loss;
pub mod mha;
mod readout;
pub mod sampled;
mod stamps;
pub mod vnode;

pub use api::{Arch, ModelKind, Pattern, SequenceBatch, SequenceModel};
pub use vnode::VirtualNode;
pub use block::TransformerBlock;
pub use gnn::{Gat, Gcn};
pub use graphormer::{Graphormer, GraphormerConfig};
pub use gt::{Gt, GtConfig};
pub use mha::{AttentionMode, MultiHeadAttention};
pub use sampled::SampledTransformer;
