//! Compressed-sparse-row graph representation.
//!
//! All graphs in the reproduction are undirected and stored symmetrically;
//! node ids are `u32` (the paper's largest graph, ogbn-papers100M, has 111 M
//! nodes, well within `u32`).

use std::collections::BTreeSet;

/// An undirected graph in CSR form.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CsrGraph {
    /// `row_ptr[v]..row_ptr[v+1]` indexes `col_idx` with `v`'s neighbours.
    row_ptr: Vec<usize>,
    /// Flattened adjacency lists, sorted within each row.
    col_idx: Vec<u32>,
}

impl CsrGraph {
    /// Build from an edge list. Edges are symmetrised and deduplicated;
    /// self-loops in the input are kept (once).
    ///
    /// Two stable counting passes, no comparison sort: the first scatters
    /// each arc's row into its column's bucket, the second walks the
    /// columns in ascending order and scatters each arc into its row, so
    /// every row comes out ascending and its duplicates adjacent. The one
    /// transient buffer holds a `u32` per arc.
    pub fn from_edges(num_nodes: usize, edges: &[(u32, u32)]) -> Self {
        // The arcs are symmetric, so a node's row and column counts agree.
        let mut row_ptr = vec![0usize; num_nodes + 1];
        for &(u, v) in edges {
            assert!(
                (u as usize) < num_nodes && (v as usize) < num_nodes,
                "edge endpoint out of range"
            );
            row_ptr[u as usize + 1] += 1;
            if u != v {
                row_ptr[v as usize + 1] += 1;
            }
        }
        for i in 0..num_nodes {
            row_ptr[i + 1] += row_ptr[i];
        }
        let arcs = row_ptr[num_nodes];
        let mut next = row_ptr[..num_nodes].to_vec();
        let mut rows_by_col = vec![0u32; arcs];
        for &(u, v) in edges {
            rows_by_col[next[v as usize]] = u;
            next[v as usize] += 1;
            if u != v {
                rows_by_col[next[u as usize]] = v;
                next[u as usize] += 1;
            }
        }
        next.copy_from_slice(&row_ptr[..num_nodes]);
        let mut col_idx = vec![0u32; arcs];
        for c in 0..num_nodes {
            for &r in &rows_by_col[row_ptr[c]..row_ptr[c + 1]] {
                col_idx[next[r as usize]] = c as u32;
                next[r as usize] += 1;
            }
        }
        drop(rows_by_col);
        // Squeeze out the duplicates, adjacent in the ascending rows.
        let mut len = 0;
        for v in 0..num_nodes {
            let (start, end) = (row_ptr[v], row_ptr[v + 1]);
            row_ptr[v] = len;
            for i in start..end {
                let c = col_idx[i];
                if len == row_ptr[v] || col_idx[len - 1] != c {
                    col_idx[len] = c;
                    len += 1;
                }
            }
        }
        row_ptr[num_nodes] = len;
        col_idx.truncate(len);
        Self { row_ptr, col_idx }
    }

    fn from_adj(adj: &[BTreeSet<u32>]) -> Self {
        let mut row_ptr = Vec::with_capacity(adj.len() + 1);
        row_ptr.push(0usize);
        let total: usize = adj.iter().map(|s| s.len()).sum();
        let mut col_idx = Vec::with_capacity(total);
        for s in adj {
            col_idx.extend(s.iter().copied());
            row_ptr.push(col_idx.len());
        }
        Self { row_ptr, col_idx }
    }

    /// Build directly from CSR arrays (must be well-formed: monotone
    /// `row_ptr`, sorted rows, in-range columns). Ascending rows are relied
    /// on, not just assumed: [`Self::has_edge`] binary-searches them (and
    /// with it Graphormer's per-edge spatial buckets, `model::encodings::
    /// edge_spd`), and [`Self::with_self_loops`] inserts each self-loop at
    /// its sorted place.
    pub fn from_raw(row_ptr: Vec<usize>, col_idx: Vec<u32>) -> Self {
        assert!(!row_ptr.is_empty());
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len());
        debug_assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]));
        Self { row_ptr, col_idx }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of stored directed arcs (2× undirected edges, self-loops count
    /// once).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.col_idx.len()
    }

    /// Number of undirected edges (self-loops count once).
    pub fn num_edges(&self) -> usize {
        let self_loops = (0..self.num_nodes() as u32)
            .filter(|&v| self.neighbors(v as usize).binary_search(&v).is_ok())
            .count();
        (self.col_idx.len() - self_loops) / 2 + self_loops
    }

    /// Neighbour slice of node `v` (sorted).
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[v]..self.row_ptr[v + 1]]
    }

    /// Degree of node `v` (self-loop counts once).
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.row_ptr[v + 1] - self.row_ptr[v]
    }

    /// Whether the (undirected) edge `u—v` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        let row = self.neighbors(u);
        debug_assert!(row.windows(2).all(|w| w[0] <= w[1]), "row {u} does not ascend: {row:?}");
        row.binary_search(&(v as u32)).is_ok()
    }

    /// The CSR arrays, `(row_ptr, col_idx)`, given back for reuse.
    pub fn into_raw(self) -> (Vec<usize>, Vec<u32>) {
        (self.row_ptr, self.col_idx)
    }

    /// Raw row pointer array.
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Raw column index array.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Sparsity: the fraction of nonzero entries in the `N×N` adjacency
    /// matrix (the paper's β_G; ogbn-arxiv quotes `4.1e-5`).
    pub fn sparsity(&self) -> f64 {
        let n = self.num_nodes() as f64;
        if n == 0.0 {
            return 0.0;
        }
        self.num_arcs() as f64 / (n * n)
    }

    /// Return a copy with a self-loop on every node (paper condition C1:
    /// every token attends to itself).
    pub fn with_self_loops(&self) -> CsrGraph {
        let n = self.num_nodes();
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(self.col_idx.len() + n);
        for v in 0..n {
            let nbrs = self.neighbors(v);
            let vv = v as u32;
            let mut inserted = false;
            for &u in nbrs {
                if !inserted && u >= vv {
                    if u != vv {
                        col_idx.push(vv);
                    }
                    inserted = true;
                }
                col_idx.push(u);
            }
            if !inserted {
                col_idx.push(vv);
            }
            row_ptr.push(col_idx.len());
        }
        CsrGraph { row_ptr, col_idx }
    }

    /// Induced subgraph on `nodes` (which become `0..nodes.len()` in order).
    /// Returns the subgraph and the mapping used.
    pub fn induced_subgraph(&self, nodes: &[u32]) -> CsrGraph {
        let mut remap = vec![u32::MAX; self.num_nodes()];
        for (new, &old) in nodes.iter().enumerate() {
            remap[old as usize] = new as u32;
        }
        let mut adj: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); nodes.len()];
        for (new, &old) in nodes.iter().enumerate() {
            for &nb in self.neighbors(old as usize) {
                let m = remap[nb as usize];
                if m != u32::MAX {
                    adj[new].insert(m);
                }
            }
        }
        CsrGraph::from_adj(&adj)
    }

    /// Relabel nodes by a permutation: `perm[new_id] = old_id`. The returned
    /// graph is isomorphic to `self`.
    ///
    /// One counting pass, no sort. The graph is symmetric, so new row `r`
    /// holds column `c` exactly when old row `perm[c]` holds `perm[r]`:
    /// walking the new columns in ascending order and appending each to the
    /// rows it belongs to leaves every row ascending.
    pub fn permute(&self, perm: &[u32]) -> CsrGraph {
        let n = self.num_nodes();
        assert_eq!(perm.len(), n, "permutation length mismatch");
        let mut inverse = vec![u32::MAX; n];
        for (new, &old) in perm.iter().enumerate() {
            assert!(inverse[old as usize] == u32::MAX, "perm is not a permutation");
            inverse[old as usize] = new as u32;
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0usize);
        for (new, &old) in perm.iter().enumerate() {
            row_ptr.push(row_ptr[new] + self.degree(old as usize));
        }
        let mut next = row_ptr[..n].to_vec();
        let mut col_idx = vec![0u32; self.col_idx.len()];
        for (c, &old) in perm.iter().enumerate() {
            for &nb in self.neighbors(old as usize) {
                let r = inverse[nb as usize] as usize;
                col_idx[next[r]] = c as u32;
                next[r] += 1;
            }
        }
        debug_assert!(next[..] == row_ptr[1..], "permute needs a symmetric graph");
        CsrGraph { row_ptr, col_idx }
    }

    /// Connected components labelling (BFS). Returns `(labels, count)`.
    pub(crate) fn connected_components(&self) -> (Vec<u32>, usize) {
        let n = self.num_nodes();
        let mut label = vec![u32::MAX; n];
        let mut count = 0u32;
        let mut queue = std::collections::VecDeque::new();
        for start in 0..n {
            if label[start] != u32::MAX {
                continue;
            }
            label[start] = count;
            queue.push_back(start as u32);
            while let Some(v) = queue.pop_front() {
                for &nb in self.neighbors(v as usize) {
                    if label[nb as usize] == u32::MAX {
                        label[nb as usize] = count;
                        queue.push_back(nb);
                    }
                }
            }
            count += 1;
        }
        (label, count as usize)
    }

    /// Whether the graph is connected (an empty graph counts as connected).
    pub fn is_connected(&self) -> bool {
        self.num_nodes() == 0 || self.connected_components().1 == 1
    }

    /// Minimum degree over all nodes (0 for the empty graph).
    pub fn min_degree(&self) -> usize {
        (0..self.num_nodes()).map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_arcs() as f64 / self.num_nodes() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> CsrGraph {
        // 0-1, 1-2, 2-0 triangle plus 2-3 tail.
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn from_edges_symmetrises() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_arcs(), 8);
        assert_eq!(g.degree(2), 3);
    }

    #[test]
    fn duplicate_edges_are_deduped() {
        let g = CsrGraph::from_edges(2, &[(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = CsrGraph::from_edges(5, &[(3, 1), (3, 4), (3, 0), (3, 2)]);
        assert_eq!(g.neighbors(3), &[0, 1, 2, 4]);
    }

    #[test]
    fn self_loops_added_once_and_sorted() {
        let g = triangle_plus_tail().with_self_loops();
        for v in 0..4 {
            assert!(g.has_edge(v, v), "missing self-loop on {v}");
            let nbrs = g.neighbors(v);
            let mut sorted = nbrs.to_vec();
            sorted.sort_unstable();
            assert_eq!(nbrs, &sorted[..]);
        }
        assert_eq!(g.num_edges(), 4 + 4);
        // Idempotent.
        let g2 = g.with_self_loops();
        assert_eq!(g.num_arcs(), g2.num_arcs());
    }

    #[test]
    fn sparsity_matches_definition() {
        let g = triangle_plus_tail();
        assert!((g.sparsity() - 8.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = triangle_plus_tail();
        let sub = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(sub.num_nodes(), 3);
        // edges 1-2 and 2-3 survive (as 0-1, 1-2); 0-x edges drop.
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 2));
        assert!(!sub.has_edge(0, 2));
    }

    #[test]
    fn permute_preserves_structure() {
        let g = triangle_plus_tail();
        let perm = vec![3, 2, 1, 0];
        let p = g.permute(&perm);
        assert_eq!(p.num_edges(), g.num_edges());
        // old edge 2-3 becomes new edge 1-0.
        assert!(p.has_edge(0, 1));
        // old degree of node 2 (=3) is now degree of new node 1.
        assert_eq!(p.degree(1), 3);
    }

    #[test]
    fn connected_components_counts() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (2, 3)]);
        let (labels, count) = g.connected_components();
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert!(!g.is_connected());
        assert!(triangle_plus_tail().is_connected());
    }

    #[test]
    fn degree_statistics() {
        let g = triangle_plus_tail();
        assert_eq!(g.min_degree(), 1);
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_is_sane() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_nodes(), 0);
        assert!(g.is_connected());
        assert_eq!(g.sparsity(), 0.0);
    }
}
