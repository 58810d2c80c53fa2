//! # torchgt-graph
//!
//! Graph substrate for the TorchGT reproduction: CSR graphs, synthetic
//! dataset generators mirroring the paper's Table III, METIS-style multilevel
//! partitioning and cluster reordering, shortest-path distances for
//! Graphormer's spatial encoding, the Dual-interleaved Attention safety
//! conditions (C1–C3), and the sparsity/cluster statistics that drive the
//! Elastic Computation Reformation.

pub mod conditions;
pub mod csr;
pub mod datasets;
pub mod generators;
pub mod pack;
pub mod partition;
pub mod reorder;
pub mod spd;
pub mod stats;

pub use conditions::{augment_for_conditions, check_conditions, ConditionReport};
pub use csr::CsrGraph;
pub use datasets::{
    DatasetKind, DatasetSpec, EffectiveSpec, GraphDataset, GraphLabel, GraphSample, NodeDataset,
    NodeSink, Split, TaskKind,
};
pub use pack::{pack_graphs, PackedGraphs};
pub use partition::{cluster_order, edge_cut, partition, ClusterOrder};
pub use reorder::{bandwidth, reverse_cuthill_mckee};
pub use stats::{cluster_matrix_stats, ClusterMatrixStats};
