//! Graph and cluster statistics.
//!
//! These drive the Elastic Computation Reformation decisions (per-cluster
//! sparsity β_C vs whole-graph sparsity β_G, §III-D) and the analyses behind
//! Figure 5.

use crate::csr::CsrGraph;
use crate::partition::ClusterOrder;

/// Per-cluster-pair edge counts and sparsity of a clustered layout.
///
/// For a `k`-cluster ordering there are `k²` clusters in the attention-matrix
/// sense (cluster pairs); `counts[i][j]` is the number of adjacency nonzeros
/// between row-cluster `i` and column-cluster `j` (Figure 5(b) of the paper).
#[derive(Clone, Debug)]
pub struct ClusterMatrixStats {
    /// `k × k` nonzero counts.
    pub counts: Vec<Vec<usize>>,
    /// `k × k` sparsity β_C = nnz / (rows·cols) of each cluster pair.
    pub sparsity: Vec<Vec<f64>>,
    /// Whole-graph sparsity β_G.
    pub graph_sparsity: f64,
    /// Fraction of all nonzeros that land in the k diagonal clusters.
    pub diagonal_fraction: f64,
}

/// Compute cluster-pair statistics for a graph *already permuted* into
/// cluster order.
pub fn cluster_matrix_stats(g: &CsrGraph, order: &ClusterOrder) -> ClusterMatrixStats {
    let k = order.num_clusters();
    let mut counts = vec![vec![0usize; k]; k];
    for v in 0..g.num_nodes() {
        let cv = order.cluster_of(v) as usize;
        for &nb in g.neighbors(v) {
            let cn = order.cluster_of(nb as usize) as usize;
            counts[cv][cn] += 1;
        }
    }
    let mut sparsity = vec![vec![0.0f64; k]; k];
    let mut diag = 0usize;
    let mut total = 0usize;
    for i in 0..k {
        for j in 0..k {
            let cells = order.cluster_size(i) as f64 * order.cluster_size(j) as f64;
            sparsity[i][j] = if cells > 0.0 { counts[i][j] as f64 / cells } else { 0.0 };
            total += counts[i][j];
            if i == j {
                diag += counts[i][j];
            }
        }
    }
    ClusterMatrixStats {
        counts,
        sparsity,
        graph_sparsity: g.sparsity(),
        diagonal_fraction: if total > 0 { diag as f64 / total as f64 } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{clustered_power_law, ClusteredConfig};
    use crate::partition::{cluster_order, partition};

    #[test]
    fn cluster_stats_diagonal_dominates_on_clustered_graph() {
        let (g, _) = clustered_power_law(
            ClusteredConfig { n: 600, communities: 6, avg_degree: 10.0, intra_fraction: 0.9 },
            1,
        );
        let assign = partition(&g, 6, 0);
        let order = cluster_order(&assign, 6);
        let rg = g.permute(&order.perm);
        let stats = cluster_matrix_stats(&rg, &order);
        assert!(stats.diagonal_fraction > 0.5, "diag frac {}", stats.diagonal_fraction);
        // Total counted nonzeros equal arcs.
        let total: usize = stats.counts.iter().flatten().sum();
        assert_eq!(total, rg.num_arcs());
        // Counts symmetric for undirected graphs.
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(stats.counts[i][j], stats.counts[j][i]);
            }
        }
    }
}
