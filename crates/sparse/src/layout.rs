//! Attention layout descriptors and memory-access profiling.
//!
//! An *attention layout* describes which (query, key) pairs an attention
//! kernel computes. The paper moves through three layouts (its Figure 5):
//! the raw topology-induced pattern, the cluster-reordered pattern, and the
//! cluster-sparse (sub-block compacted) pattern. Dense and FlashAttention
//! kernels always use the fully-connected layout.

use torchgt_graph::CsrGraph;

torchgt_compat::json_enum! {
    /// The attention pattern families used across the paper's experiments.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub enum LayoutKind {
        /// Fully-connected `O(S²)` attention (GP-RAW).
        Dense,
        /// Fully-connected attention computed with an IO-aware tiled kernel
        /// (GP-FLASH). Same pattern as `Dense`, different kernel cost.
        Flash,
        /// Topology-induced `O(E)` sparse attention (GP-SPARSE).
        Topology,
        /// Cluster-reordered topology attention (after graph parallelism's
        /// reordering step).
        Clustered,
        /// Cluster-sparse attention after Elastic Computation Reformation.
        ClusterSparse,
    }
}

impl LayoutKind {
    /// Human-readable label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            LayoutKind::Dense => "dense",
            LayoutKind::Flash => "flash",
            LayoutKind::Topology => "topology",
            LayoutKind::Clustered => "clustered",
            LayoutKind::ClusterSparse => "cluster-sparse",
        }
    }
}

torchgt_compat::json_struct! {
    /// Shape of a transformer model, as the cost model prices a step at
    /// it: a model reports its own (`SequenceModel::shape`).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct ModelShape {
        /// Number of transformer layers.
        pub layers: usize,
        /// Hidden dimension.
        pub hidden: usize,
        /// Attention heads.
        pub heads: usize,
    }
}

impl ModelShape {
    /// Parameter count of the transformer trunk (projections + FFN + LN).
    pub fn param_count(&self) -> usize {
        let d = self.hidden;
        self.layers * (4 * d * d + 8 * d * d + 8 * d)
    }
}

torchgt_compat::json_struct! {
    /// Memory-access profile of a sparse attention mask.
    ///
    /// The cost model uses this to convert a layout into simulated GPU time:
    /// contiguous runs of column indices coalesce into wide loads, isolated
    /// nonzeros become serialized gathers (the paper's Table II measures exactly
    /// this penalty: up to 33× over dense).
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    pub struct AccessProfile {
        /// Total nonzeros (attended pairs).
        pub nnz: usize,
        /// Number of maximal runs of consecutive column indices.
        pub runs: usize,
        /// Mean run length (`nnz / runs`).
        pub avg_run_len: f64,
        /// Nonzeros in runs of length 1 — the fully irregular accesses.
        pub isolated: usize,
        /// Number of rows with at least one nonzero.
        pub active_rows: usize,
    }
}

/// Profile the memory-access pattern of a CSR attention mask.
pub fn access_profile(mask: &CsrGraph) -> AccessProfile {
    let mut nnz = 0usize;
    let mut runs = 0usize;
    let mut isolated = 0usize;
    let mut active_rows = 0usize;
    for v in 0..mask.num_nodes() {
        let cols = mask.neighbors(v);
        if cols.is_empty() {
            continue;
        }
        active_rows += 1;
        nnz += cols.len();
        let mut run_len = 1usize;
        for w in cols.windows(2) {
            if w[1] == w[0] + 1 {
                run_len += 1;
            } else {
                runs += 1;
                if run_len == 1 {
                    isolated += 1;
                }
                run_len = 1;
            }
        }
        runs += 1;
        if run_len == 1 {
            isolated += 1;
        }
    }
    AccessProfile {
        nnz,
        runs,
        avg_run_len: if runs > 0 { nnz as f64 / runs as f64 } else { 0.0 },
        isolated,
        active_rows,
    }
}

/// Profile of the fully-connected layout for a sequence length (one run per
/// row covering every column).
pub fn dense_profile(s: usize) -> AccessProfile {
    AccessProfile {
        nnz: s * s,
        runs: s,
        avg_run_len: s as f64,
        isolated: 0,
        active_rows: s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchgt_graph::generators::{complete_graph, path_graph, star_graph};

    #[test]
    fn dense_profile_shape() {
        let p = dense_profile(8);
        assert_eq!(p.nnz, 64);
        assert_eq!(p.runs, 8);
        assert_eq!(p.isolated, 0);
    }

    #[test]
    fn complete_graph_is_fully_contiguous() {
        let g = complete_graph(6).with_self_loops();
        let p = access_profile(&g);
        assert_eq!(p.nnz, 36);
        assert_eq!(p.runs, 6); // one run per row
        assert_eq!(p.isolated, 0);
        assert_eq!(p.avg_run_len, 6.0);
    }

    #[test]
    fn star_graph_hub_row_is_one_run() {
        let g = star_graph(10);
        let p = access_profile(&g);
        // hub row = cols 1..9 contiguous (1 run); each leaf row = single col.
        assert_eq!(p.nnz, 18);
        assert_eq!(p.runs, 1 + 9);
        assert_eq!(p.isolated, 9);
    }

    #[test]
    fn path_graph_interior_rows_are_split_runs() {
        // Row v has cols {v-1, v+1}: two isolated nonzeros.
        let g = path_graph(5);
        let p = access_profile(&g);
        assert_eq!(p.nnz, 8);
        assert_eq!(p.active_rows, 5);
        assert_eq!(p.isolated, 8);
    }

    #[test]
    fn self_loops_merge_runs() {
        // With self-loops row v = {v-1, v, v+1}: one run of 3.
        let g = path_graph(5).with_self_loops();
        let p = access_profile(&g);
        assert_eq!(p.nnz, 13);
        assert!(p.avg_run_len > 2.0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(LayoutKind::ClusterSparse.label(), "cluster-sparse");
        assert_eq!(LayoutKind::Flash.label(), "flash");
    }
}
