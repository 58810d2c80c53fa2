//! Pre-processing pipeline: cluster partitioning, node reordering, sequence
//! chunking and attention-mask construction.
//!
//! This is the "runtime level" of the paper's Figure 3/4: the input graph is
//! METIS-partitioned, nodes are relabelled so clusters are contiguous, the
//! sequence is chunked, and each chunk gets its topology mask (later
//! reformed at the kernel level). §IV-E measures this stage's cost, with
//! the node trainer's per-sequence partitions and first reformation,
//! against total training time: `NodeTrainer::preprocess_seconds` sums it.

use torchgt_graph::partition::{cluster_order, partition, ClusterOrder};
use torchgt_graph::{CsrGraph, NodeDataset};
use torchgt_sparse::{topology_mask, access_profile, AccessProfile};
use torchgt_tensor::Tensor;

/// One training sequence: a contiguous chunk of (reordered) nodes with its
/// induced subgraph and attention mask.
pub struct Sequence {
    /// Node ids (into the *reordered* dataset) covered by this sequence.
    pub nodes: Vec<u32>,
    /// Induced subgraph over the sequence's nodes (local ids).
    pub graph: CsrGraph,
    /// Topology attention mask (self-loops + Hamiltonian repair).
    pub mask: CsrGraph,
    /// Features `[s, feat]` in local order.
    pub features: Tensor,
    /// Labels in local order.
    pub labels: Vec<u32>,
    /// Memory-access profile of the topology mask.
    pub profile: AccessProfile,
}

/// Pre-processed node-level dataset.
pub struct Prepared {
    /// Cluster assignment and ordering (identity for baseline methods).
    pub order: Option<ClusterOrder>,
    /// Reordered split indices (train/test in new ids).
    pub train_idx: Vec<u32>,
    /// Test indices in new ids.
    pub test_idx: Vec<u32>,
    /// The training sequences.
    pub sequences: Vec<Sequence>,
    /// Whole-graph sparsity β_G.
    pub beta_g: f64,
}

/// Run the pipeline. `clustered = true` applies the METIS-style reordering
/// (TorchGT); `false` keeps the original order (the GP-* baselines).
pub fn prepare_node_dataset(
    dataset: &NodeDataset,
    seq_len: usize,
    clustered: bool,
    clusters: usize,
    seed: u64,
) -> Prepared {
    prepare_in_order(dataset, seq_len, global_order(dataset, clustered, clusters, seed))
}

/// The first half of [`prepare_node_dataset`]: the whole graph's cluster
/// order, when one applies.
pub(crate) fn global_order(dataset: &NodeDataset, clustered: bool, clusters: usize, seed: u64) -> Option<ClusterOrder> {
    (clustered && clusters > 1).then(|| cluster_order(&partition(&dataset.graph, clusters, seed), clusters))
}

/// The second half of [`prepare_node_dataset`]: chunk the nodes, relabelled
/// by `order` (kept as they are without one), into sequences. Each feature
/// row is copied once, from the dataset into its sequence, and the
/// relabelled graph lives only until the last sequence's subgraph is cut.
pub(crate) fn prepare_in_order(dataset: &NodeDataset, seq_len: usize, order: Option<ClusterOrder>) -> Prepared {
    let n = dataset.num_nodes();
    let permuted = order.as_ref().map(|o| dataset.graph.permute(&o.perm));
    let graph = permuted.as_ref().unwrap_or(&dataset.graph);
    let old = |new: u32| order.as_ref().map_or(new, |o| o.perm[new as usize]) as usize;
    let remap = |idx: &[u32]| -> Vec<u32> {
        match &order {
            Some(o) => idx.iter().map(|&v| o.inverse[v as usize]).collect(),
            None => idx.to_vec(),
        }
    };
    let train_idx = remap(&dataset.split.train);
    let test_idx = remap(&dataset.split.test);

    // Chunk into sequences.
    let feat_dim = dataset.feat_dim;
    let seq_len = seq_len.min(n).max(1);
    let mut sequences = Vec::with_capacity(n.div_ceil(seq_len));
    let mut start = 0usize;
    while start < n {
        let end = (start + seq_len).min(n);
        let nodes: Vec<u32> = (start as u32..end as u32).collect();
        let sub = graph.induced_subgraph(&nodes);
        let mask = topology_mask(&sub, true);
        let profile = access_profile(&mask);
        let mut seq_feat = Vec::with_capacity(nodes.len() * feat_dim);
        for &v in &nodes {
            seq_feat.extend_from_slice(dataset.feature_row(old(v)));
        }
        let seq_labels: Vec<u32> = nodes.iter().map(|&v| dataset.labels[old(v)]).collect();
        sequences.push(Sequence {
            graph: sub,
            mask,
            features: Tensor::from_vec(nodes.len(), feat_dim, seq_feat),
            labels: seq_labels,
            profile,
            nodes,
        });
        start = end;
    }

    let beta_g = graph.sparsity();
    Prepared { order, train_idx, test_idx, sequences, beta_g }
}

impl Prepared {
    /// Per-sequence (train-index, local-position) lists: which positions of
    /// each sequence carry training labels.
    pub fn train_positions(&self) -> Vec<Vec<u32>> {
        self.positions_of(&self.train_idx)
    }

    /// Same for test nodes.
    pub fn test_positions(&self) -> Vec<Vec<u32>> {
        self.positions_of(&self.test_idx)
    }

    fn positions_of(&self, idx: &[u32]) -> Vec<Vec<u32>> {
        let mut marks = vec![false; self.sequences.iter().map(|s| s.nodes.len()).sum()];
        for &v in idx {
            marks[v as usize] = true;
        }
        self.sequences
            .iter()
            .map(|s| {
                s.nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, &v)| marks[v as usize])
                    .map(|(i, _)| i as u32)
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchgt_graph::DatasetKind;

    fn small_dataset() -> NodeDataset {
        DatasetKind::OgbnArxiv.generate_node(0.004, 7)
    }

    #[test]
    fn sequences_cover_all_nodes_once() {
        let d = small_dataset();
        let p = prepare_node_dataset(&d, 200, true, 4, 1);
        let total: usize = p.sequences.iter().map(|s| s.nodes.len()).sum();
        assert_eq!(total, d.num_nodes());
        let mut seen = vec![false; d.num_nodes()];
        for s in &p.sequences {
            for &v in &s.nodes {
                assert!(!seen[v as usize], "node {v} appears twice");
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn reordering_preserves_label_feature_pairing() {
        let d = small_dataset();
        let p = prepare_node_dataset(&d, 100, true, 4, 1);
        let order = p.order.as_ref().unwrap();
        for s in &p.sequences {
            for (i, &new) in s.nodes.iter().enumerate() {
                let old = order.perm[new as usize] as usize;
                assert_eq!(s.labels[i], d.labels[old]);
                assert_eq!(s.features.row(i), d.feature_row(old));
            }
        }
    }

    #[test]
    fn split_indices_remapped_consistently() {
        let d = small_dataset();
        let p = prepare_node_dataset(&d, 100_000, true, 4, 1);
        // Every remapped train index carries the same label as the original.
        let order = p.order.as_ref().unwrap();
        let labels = &p.sequences[0].labels;
        for (&orig, &new) in d.split.train.iter().zip(&p.train_idx) {
            assert_eq!(order.inverse[orig as usize], new);
            assert_eq!(d.labels[orig as usize], labels[new as usize]);
        }
    }

    #[test]
    fn masks_satisfy_c1_and_connectivity() {
        let d = small_dataset();
        let p = prepare_node_dataset(&d, 300, true, 4, 1);
        for s in &p.sequences {
            for v in 0..s.mask.num_nodes() {
                assert!(s.mask.has_edge(v, v), "C1 violated");
            }
            assert!(s.mask.is_connected(), "repair must connect the mask");
        }
    }

    #[test]
    fn unclustered_mode_keeps_original_order() {
        let d = small_dataset();
        let p = prepare_node_dataset(&d, 100, false, 1, 1);
        assert!(p.order.is_none());
        let labels: Vec<u32> = p.sequences.iter().flat_map(|s| s.labels.iter().copied()).collect();
        assert_eq!(labels, d.labels);
        let features: Vec<f32> = p.sequences.iter().flat_map(|s| s.features.data().iter().copied()).collect();
        assert_eq!(features, d.features);
    }

    #[test]
    fn clustering_improves_mask_locality() {
        let d = DatasetKind::OgbnProducts.generate_node(0.0006, 3);
        let seq = d.num_nodes();
        let raw = prepare_node_dataset(&d, seq, false, 1, 1);
        let clu = prepare_node_dataset(&d, seq, true, 8, 1);
        let raw_run = raw.sequences[0].profile.avg_run_len;
        let clu_run = clu.sequences[0].profile.avg_run_len;
        assert!(
            clu_run > raw_run,
            "clustered run {clu_run} should beat raw {raw_run}"
        );
    }

    #[test]
    fn train_positions_map_back_to_train_nodes() {
        let d = small_dataset();
        let p = prepare_node_dataset(&d, 150, true, 4, 1);
        let pos = p.train_positions();
        let mut count = 0;
        for (s, positions) in p.sequences.iter().zip(&pos) {
            for &local in positions {
                let global = s.nodes[local as usize];
                assert!(p.train_idx.contains(&global));
                count += 1;
            }
        }
        assert_eq!(count, p.train_idx.len());
    }

    #[test]
    fn graph_sparsity_is_a_fraction() {
        let d = small_dataset();
        let p = prepare_node_dataset(&d, 500, true, 8, 1);
        assert!(p.beta_g > 0.0 && p.beta_g < 1.0);
    }
}
