//! Per-query subgraph extraction and micro-batch packing.
//!
//! A node query becomes an **ego subgraph**: BFS from the queried node,
//! capped at a context size, with the induced edges relabelled to local
//! ids. Concurrent queries then pack into one block-diagonal sequence, so a
//! single sparse-attention forward amortizes across the whole micro-batch
//! while segments stay attention-isolated — the paper's §IV packing,
//! pointed at inference.
//!
//! [`Packer`] does both in one pass per query, into buffers it keeps from
//! batch to batch. A stamp array and a token array the size of the served
//! graph say which nodes the current query selected and where each sits in
//! the batch, so a neighbour row is filtered with two loads and no branch
//! per neighbour, straight into the packed graph; the mask row (self-loop
//! merged in) and the features follow from it. A segment lays its nodes out
//! root first, then in ascending global id: the graph's rows ascend, so
//! every segment row comes out ascending with no sort, and a segment is
//! exactly `graph.induced_subgraph(&nodes)` — what training's sequences
//! are, and what Graphormer's spatial buckets (`edge_spd`, a binary search
//! per edge) need.
//!
//! The packed attention mask is the union with self-loops only: the
//! training path's Hamiltonian-path mask augmentation would thread a
//! connectivity chain *across* segment boundaries and leak one query's
//! tokens into another's attention.

use std::mem;
use torchgt_graph::CsrGraph;
use torchgt_tensor::Tensor;

/// One query's context: the queried node plus its BFS neighbourhood.
#[derive(Clone, Debug)]
pub struct EgoSubgraph {
    /// Global node ids: the root, then the rest of the BFS selection in
    /// ascending id.
    pub nodes: Vec<u32>,
    /// Induced subgraph over `nodes`, in local ids.
    pub graph: CsrGraph,
}

/// Extract the BFS ego subgraph of `root`, capped at `max_nodes` nodes.
/// One query through a fresh [`Packer`], whose arrays are sized to `graph`.
pub fn ego_subgraph(graph: &CsrGraph, root: u32, max_nodes: usize) -> EgoSubgraph {
    let mut packer = Packer::new(graph.num_nodes());
    packer.push_query(graph, root, max_nodes, &[], 0);
    let packed = packer.finish(0);
    EgoSubgraph { nodes: packer.nodes, graph: packed.graph }
}

/// A micro-batch of queries packed into one block-diagonal sequence.
pub struct PackedQueryBatch {
    /// `[total_tokens, feat_dim]` features in packed order.
    pub features: Tensor,
    /// Block-diagonal union of the member subgraphs.
    pub graph: CsrGraph,
    /// Attention mask: the union with self-loops (no cross-segment arcs).
    pub mask: CsrGraph,
    /// Token range of each query; the query's root is the range's first row.
    pub segments: Vec<(usize, usize)>,
}

/// Pack ego subgraphs and their node features into one sequence.
///
/// `features` is the dataset's full `[num_nodes, feat_dim]` row-major
/// buffer; rows are gathered by each subgraph's global ids.
pub fn pack_queries(
    subs: &[EgoSubgraph],
    features: &[f32],
    feat_dim: usize,
) -> PackedQueryBatch {
    assert!(!subs.is_empty(), "pack_queries: empty micro-batch");
    let mut packer = Packer::default();
    for sub in subs {
        packer.push_subgraph(sub, features, feat_dim);
    }
    packer.finish(feat_dim)
}

/// Extraction and packing state, reused from batch to batch: push each
/// query of a batch, [`Packer::finish`] it, and hand the batch back to
/// [`Packer::recycle`] once it has been read.
#[derive(Default)]
pub(crate) struct Packer {
    /// Per node of the served graph: the number of the last query that
    /// selected it.
    stamp: Vec<u32>,
    /// Per node of the served graph: its token in the batch, valid where
    /// `stamp` holds the current query's number.
    token: Vec<u32>,
    /// The current query's number; never 0, so a zeroed `stamp` selects
    /// nothing.
    mark: u32,
    /// The current query's nodes: root first, then ascending global id.
    nodes: Vec<u32>,
    /// The batch under construction.
    out: Building,
}

/// The arrays of a [`PackedQueryBatch`] while it is being written.
#[derive(Default)]
struct Building {
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    mask_ptr: Vec<usize>,
    mask_col: Vec<u32>,
    features: Vec<f32>,
    segments: Vec<(usize, usize)>,
}

impl Packer {
    /// A packer for queries against a graph of `num_nodes` nodes.
    pub(crate) fn new(num_nodes: usize) -> Self {
        Self { stamp: vec![0; num_nodes], token: vec![0; num_nodes], ..Self::default() }
    }

    /// Append the ego subgraph of `root` (at most `max_nodes` nodes, at
    /// least the root) as the batch's next segment, with its mask rows and
    /// its rows of the `[num_nodes, feat_dim]` `features`.
    pub(crate) fn push_query(
        &mut self,
        graph: &CsrGraph,
        root: u32,
        max_nodes: usize,
        features: &[f32],
        feat_dim: usize,
    ) {
        self.select(graph, root, max_nodes.max(1));
        let start = self.out.next_token();
        for (i, &v) in self.nodes.iter().enumerate() {
            self.token[v as usize] = (start + i) as u32;
        }
        let (root, mark) = (root as usize, self.mark);
        for (i, &v) in self.nodes.iter().enumerate() {
            let v = v as usize;
            let nbrs = graph.neighbors(v);
            let at = self.out.col_idx.len();
            self.out.col_idx.resize(at + nbrs.len() + 1, 0);
            let row = &mut self.out.col_idx[at..];
            // The root's token is the segment's smallest: it leads the row
            // when present, and the filter skips it.
            row[0] = start as u32;
            let mut kept = usize::from(graph.has_edge(v, root));
            for &u in nbrs {
                let u = u as usize;
                row[kept] = self.token[u];
                kept += usize::from((self.stamp[u] == mark) & (u != root));
            }
            self.out.col_idx.truncate(at + kept);
            self.out.close_row((start + i) as u32);
        }
        self.out.gather(&self.nodes, features, feat_dim);
        self.out.segments.push((start, start + self.nodes.len()));
    }

    /// Append an extracted subgraph as the batch's next segment.
    fn push_subgraph(&mut self, sub: &EgoSubgraph, features: &[f32], feat_dim: usize) {
        let start = self.out.next_token();
        let n = sub.graph.num_nodes();
        for v in 0..n {
            self.out.col_idx.extend(sub.graph.neighbors(v).iter().map(|&u| u + start as u32));
            self.out.close_row((start + v) as u32);
        }
        self.out.gather(&sub.nodes, features, feat_dim);
        self.out.segments.push((start, start + n));
    }

    /// BFS from `root` until `cap` nodes: stamp them with a new query
    /// number and lay them out in `nodes`, root first, the rest ascending.
    fn select(&mut self, graph: &CsrGraph, root: u32, cap: usize) {
        self.mark = self.mark.wrapping_add(1);
        if self.mark == 0 {
            // The query counter wrapped: forget every earlier stamp.
            self.stamp.fill(0);
            self.mark = 1;
        }
        self.nodes.clear();
        self.nodes.push(root);
        self.stamp[root as usize] = self.mark;
        let mut head = 0;
        while head < self.nodes.len() && self.nodes.len() < cap {
            let v = self.nodes[head];
            head += 1;
            for &u in graph.neighbors(v as usize) {
                if self.nodes.len() >= cap {
                    break;
                }
                if self.stamp[u as usize] != self.mark {
                    self.stamp[u as usize] = self.mark;
                    self.nodes.push(u);
                }
            }
        }
        self.nodes[1..].sort_unstable();
    }

    /// The batch pushed so far; the packer starts an empty one.
    pub(crate) fn finish(&mut self, feat_dim: usize) -> PackedQueryBatch {
        let tokens = self.out.next_token();
        let out = &mut self.out;
        PackedQueryBatch {
            features: Tensor::from_vec(tokens, feat_dim, mem::take(&mut out.features)),
            graph: CsrGraph::from_raw(mem::take(&mut out.row_ptr), mem::take(&mut out.col_idx)),
            mask: CsrGraph::from_raw(mem::take(&mut out.mask_ptr), mem::take(&mut out.mask_col)),
            segments: mem::take(&mut out.segments),
        }
    }

    /// Keep a finished batch's buffers for the next one.
    pub(crate) fn recycle(&mut self, batch: PackedQueryBatch) {
        let out = &mut self.out;
        (out.row_ptr, out.col_idx) = batch.graph.into_raw();
        (out.mask_ptr, out.mask_col) = batch.mask.into_raw();
        out.features = batch.features.into_vec();
        out.segments = batch.segments;
        out.row_ptr.clear();
        out.col_idx.clear();
        out.mask_ptr.clear();
        out.mask_col.clear();
        out.features.clear();
        out.segments.clear();
    }
}

impl Building {
    /// The next segment's first token; opens the row pointers of an empty
    /// batch.
    fn next_token(&mut self) -> usize {
        if self.row_ptr.is_empty() {
            self.row_ptr.push(0);
            self.mask_ptr.push(0);
        }
        self.row_ptr.len() - 1
    }

    /// End the graph row of `token` written since the last row end, and
    /// write its mask row: the same columns with `token` at its sorted place.
    fn close_row(&mut self, token: u32) {
        let row = &self.col_idx[self.row_ptr[self.row_ptr.len() - 1]..];
        let below = row.partition_point(|&c| c < token);
        let rest = &row[below..];
        self.mask_col.extend_from_slice(&row[..below]);
        self.mask_col.push(token);
        self.mask_col.extend_from_slice(rest.strip_prefix(&[token]).unwrap_or(rest));
        self.mask_ptr.push(self.mask_col.len());
        self.row_ptr.push(self.col_idx.len());
    }

    /// Append the feature rows of `nodes`.
    fn gather(&mut self, nodes: &[u32], features: &[f32], feat_dim: usize) {
        for &v in nodes {
            let off = v as usize * feat_dim;
            self.features.extend_from_slice(&features[off..off + feat_dim]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0-1-2-3 path plus an isolated 4.
    fn path_graph() -> CsrGraph {
        CsrGraph::from_raw(vec![0, 1, 3, 5, 6, 6], vec![1, 0, 2, 1, 3, 2])
    }

    #[test]
    fn ego_subgraph_is_root_first_and_capped() {
        let g = path_graph();
        let e = ego_subgraph(&g, 1, 2);
        assert_eq!(e.nodes[0], 1);
        assert_eq!(e.nodes.len(), 2);
        let full = ego_subgraph(&g, 0, 100);
        assert_eq!(full.nodes, vec![0, 1, 2, 3]);
        // Induced local edges mirror the path.
        assert_eq!(full.graph.neighbors(0), &[1]);
        assert_eq!(full.graph.neighbors(1), &[0, 2]);
    }

    #[test]
    fn a_middle_root_leads_its_neighbours_rows() {
        // Root 2 of the path: layout [2, 0, 1, 3], so node 1's row names the
        // root (token 0) before node 0 (token 1).
        let e = ego_subgraph(&path_graph(), 2, 100);
        assert_eq!(e.nodes, vec![2, 0, 1, 3]);
        assert_eq!(e.graph.neighbors(2), &[0, 1]);
        assert_eq!(e.graph.neighbors(0), &[2, 3]);
    }

    #[test]
    fn isolated_root_still_yields_one_node() {
        let e = ego_subgraph(&path_graph(), 4, 8);
        assert_eq!(e.nodes, vec![4]);
        assert_eq!(e.graph.num_nodes(), 1);
        assert_eq!(e.graph.num_arcs(), 0);
    }

    #[test]
    fn packed_batch_keeps_segments_isolated() {
        let g = path_graph();
        let feat: Vec<f32> = (0..10).map(|i| i as f32).collect(); // feat_dim 2
        let subs = vec![ego_subgraph(&g, 0, 3), ego_subgraph(&g, 4, 3)];
        let b = pack_queries(&subs, &feat, 2);
        assert_eq!(b.segments, vec![(0, 3), (3, 4)]);
        assert_eq!(b.features.row(0), &[0.0, 1.0]); // node 0
        assert_eq!(b.features.row(3), &[8.0, 9.0]); // node 4
        // No arc in the mask crosses the 3|4 boundary.
        for v in 0..3 {
            assert!(b.mask.neighbors(v).iter().all(|&u| (u as usize) < 3));
        }
        assert_eq!(b.mask.neighbors(3), &[3]); // isolated root: self-loop only
    }

    #[test]
    fn a_reused_packer_packs_what_a_fresh_one_does() {
        let g = path_graph();
        let feat: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let mut reused = Packer::new(g.num_nodes());
        for roots in [[2u32, 0, 4], [3, 3, 1], [4, 2, 2]] {
            let mut fresh = Packer::new(g.num_nodes());
            for &r in &roots {
                reused.push_query(&g, r, 3, &feat, 2);
                fresh.push_query(&g, r, 3, &feat, 2);
            }
            let (a, b) = (reused.finish(2), fresh.finish(2));
            assert_eq!((&a.graph, &a.mask, &a.segments), (&b.graph, &b.mask, &b.segments));
            assert_eq!(a.features.data(), b.features.data());
            reused.recycle(a);
        }
    }

    #[test]
    fn a_wrapped_query_counter_forgets_old_stamps() {
        // Every node stamped by query 1 long ago; the counter is about to
        // wrap back to 1.
        let g = path_graph();
        let mut p = Packer::new(g.num_nodes());
        p.stamp.fill(1);
        p.mark = u32::MAX;
        p.push_query(&g, 0, 8, &[], 0);
        assert_eq!(p.mark, 1);
        assert_eq!(p.nodes, vec![0, 1, 2, 3]);
    }
}
