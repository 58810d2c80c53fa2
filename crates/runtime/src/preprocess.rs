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
    /// Number of clusters used.
    pub clusters: usize,
    /// The reordered graph (or a clone of the original for baselines).
    pub graph: CsrGraph,
    /// Reordered labels.
    pub labels: Vec<u32>,
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
    let n = dataset.num_nodes();
    let (order, graph, perm_inverse) = if clustered && clusters > 1 {
        let assign = partition(&dataset.graph, clusters, seed);
        let order = cluster_order(&assign, clusters);
        let graph = dataset.graph.permute(&order.perm);
        let inverse = order.inverse.clone();
        (Some(order), graph, Some(inverse))
    } else {
        (None, dataset.graph.clone(), None)
    };
    // Reorder features/labels to the new ids.
    let feat_dim = dataset.feat_dim;
    let mut features = Tensor::zeros(n, feat_dim);
    let mut labels = vec![0u32; n];
    for new in 0..n {
        let old = match &order {
            Some(o) => o.perm[new] as usize,
            None => new,
        };
        features.row_mut(new).copy_from_slice(dataset.feature_row(old));
        labels[new] = dataset.labels[old];
    }
    let remap = |idx: &[u32]| -> Vec<u32> {
        match &perm_inverse {
            Some(inv) => idx.iter().map(|&v| inv[v as usize]).collect(),
            None => idx.to_vec(),
        }
    };
    let train_idx = remap(&dataset.split.train);
    let test_idx = remap(&dataset.split.test);

    // Chunk into sequences.
    let seq_len = seq_len.min(n).max(1);
    let mut sequences = Vec::new();
    let mut start = 0usize;
    while start < n {
        let end = (start + seq_len).min(n);
        let nodes: Vec<u32> = (start as u32..end as u32).collect();
        let sub = graph.induced_subgraph(&nodes);
        let mask = topology_mask(&sub, true);
        let profile = access_profile(&mask);
        let mut seq_feat = Tensor::zeros(end - start, feat_dim);
        for (i, &v) in nodes.iter().enumerate() {
            seq_feat.row_mut(i).copy_from_slice(features.row(v as usize));
        }
        let seq_labels: Vec<u32> = nodes.iter().map(|&v| labels[v as usize]).collect();
        sequences.push(Sequence {
            nodes,
            graph: sub,
            mask,
            features: seq_feat,
            labels: seq_labels,
            profile,
        });
        start = end;
    }

    let beta_g = graph.sparsity();
    Prepared {
        order,
        clusters: if clustered { clusters } else { 1 },
        graph,
        labels,
        train_idx,
        test_idx,
        sequences,
        beta_g,
    }
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
        let mut marks = vec![false; self.labels.len()];
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
        let p = prepare_node_dataset(&d, 100_000, true, 4, 1);
        let order = p.order.as_ref().unwrap();
        for new in [0usize, 5, 100, d.num_nodes() - 1] {
            let old = order.perm[new] as usize;
            assert_eq!(p.labels[new], d.labels[old]);
        }
    }

    #[test]
    fn split_indices_remapped_consistently() {
        let d = small_dataset();
        let p = prepare_node_dataset(&d, 100_000, true, 4, 1);
        // Every remapped train index carries the same label as the original.
        let order = p.order.as_ref().unwrap();
        for (&orig, &new) in d.split.train.iter().zip(&p.train_idx) {
            assert_eq!(order.inverse[orig as usize], new);
            assert_eq!(d.labels[orig as usize], p.labels[new as usize]);
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
        let p = prepare_node_dataset(&d, 100_000, false, 1, 1);
        assert!(p.order.is_none());
        assert_eq!(p.labels, d.labels);
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
