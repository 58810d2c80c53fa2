//! Graph and cluster statistics.
//!
//! These drive the Elastic Computation Reformation decisions (per-cluster
//! sparsity β_C vs whole-graph sparsity β_G, §III-D) and the analyses behind
//! Figure 5.

use crate::csr::CsrGraph;
use crate::partition::ClusterOrder;

/// Degree distribution summary of a graph.
#[derive(Clone, Copy, Debug)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Gini coefficient of the degree distribution (0 = uniform, →1 =
    /// concentrated on hubs). Real-world power-law graphs score > 0.3.
    pub gini: f64,
}

/// Compute degree statistics.
pub fn degree_stats(g: &CsrGraph) -> DegreeStats {
    let n = g.num_nodes();
    if n == 0 {
        return DegreeStats { min: 0, max: 0, mean: 0.0, gini: 0.0 };
    }
    let mut degrees: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    degrees.sort_unstable();
    let sum: usize = degrees.iter().sum();
    let mean = sum as f64 / n as f64;
    // Gini via the sorted formula: G = (2 Σ i·x_i) / (n Σ x) − (n+1)/n.
    let gini = if sum == 0 {
        0.0
    } else {
        let weighted: f64 =
            degrees.iter().enumerate().map(|(i, &d)| (i + 1) as f64 * d as f64).sum();
        (2.0 * weighted) / (n as f64 * sum as f64) - (n as f64 + 1.0) / n as f64
    };
    DegreeStats { min: degrees[0], max: degrees[n - 1], mean, gini }
}

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

/// Newman modularity of a partition (quality of community structure;
/// positive values mean denser-than-random intra-cluster connectivity).
pub fn modularity(g: &CsrGraph, assignment: &[u32]) -> f64 {
    let m2 = g.num_arcs() as f64; // = 2m
    if m2 == 0.0 {
        return 0.0;
    }
    let k = assignment.iter().copied().max().map(|v| v as usize + 1).unwrap_or(0);
    let mut intra = vec![0f64; k];
    let mut deg_sum = vec![0f64; k];
    for v in 0..g.num_nodes() {
        let c = assignment[v] as usize;
        deg_sum[c] += g.degree(v) as f64;
        for &nb in g.neighbors(v) {
            if assignment[nb as usize] as usize == c {
                intra[c] += 1.0;
            }
        }
    }
    (0..k).map(|c| intra[c] / m2 - (deg_sum[c] / m2).powi(2)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{clustered_power_law, complete_graph, star_graph, ClusteredConfig};
    use crate::partition::{cluster_order, partition};

    #[test]
    fn degree_stats_of_star() {
        let s = degree_stats(&star_graph(11));
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 10);
        assert!(s.gini > 0.3, "star should be highly skewed, gini={}", s.gini);
    }

    #[test]
    fn degree_stats_of_regular_graph() {
        let s = degree_stats(&complete_graph(6));
        assert_eq!(s.min, s.max);
        assert!(s.gini.abs() < 1e-9);
    }

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

    #[test]
    fn modularity_prefers_planted_partition() {
        let (g, comm) = clustered_power_law(
            ClusteredConfig { n: 500, communities: 5, avg_degree: 10.0, intra_fraction: 0.9 },
            2,
        );
        let planted = modularity(&g, &comm);
        let garbage: Vec<u32> = (0..500).map(|v| (v % 5) as u32).collect();
        let random = modularity(&g, &garbage);
        assert!(planted > random + 0.2, "planted {planted} vs random {random}");
    }
}
