//! Per-query subgraph extraction and micro-batch packing.
//!
//! A node query becomes an **ego subgraph**: BFS from the queried node,
//! capped at a context size, with the induced edges relabelled to local
//! ids. Concurrent queries then pack into one block-diagonal sequence, so a
//! single sparse-attention forward amortizes across the whole micro-batch
//! while segments stay attention-isolated — the paper's §IV packing,
//! pointed at inference.
//!
//! [`Packer`] writes each query as a **segment** in segment-local ids — its
//! nodes, its induced graph rows, its mask rows with the self-loop merged
//! in — and appends the segment to the batch shifted by its first token.
//! Extraction is one pass per query: a stamp array and a local-id array the
//! size of the served graph say which nodes the query selected and where
//! each sits, so a neighbour row is filtered with two loads and no branch
//! per neighbour. A segment lays its nodes out root first, then in
//! ascending global id: the graph's rows ascend, so every segment row comes
//! out ascending with no sort, and a segment is exactly
//! `graph.induced_subgraph(&nodes)` — what training's sequences are, and
//! what Graphormer's spatial buckets need.
//!
//! Each segment is first written to one scratch record, the packer's arena,
//! and appended to the batch from there by one append path, so
//! [`pack_queries`]' extracted subgraphs and the packer's own extractions
//! lay out a batch alike. Nothing is kept from query to query: the serve
//! loop keeps each node's answer, so a node it has answered is not packed
//! again.
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
    let mut packer = Packer::new(graph.num_nodes(), max_nodes);
    packer.push_query(graph, root, &[], 0);
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

/// Extraction and packing state for one served graph and context cap,
/// reused from batch to batch: push each query of a batch,
/// [`Packer::finish`] it, and hand the batch back to [`Packer::recycle`]
/// once it has been read.
#[derive(Default)]
pub(crate) struct Packer {
    /// Nodes per query, at least the root.
    cap: usize,
    /// Per node of the served graph: the number of the last query that
    /// selected it.
    stamp: Vec<u32>,
    /// Per node of the served graph: its local id in the current query's
    /// segment, valid where `stamp` holds the current query's number.
    local: Vec<u32>,
    /// The current query's number; never 0, so a zeroed `stamp` selects
    /// nothing.
    mark: u32,
    /// The last extracted query's nodes: root first, then ascending global id.
    nodes: Vec<u32>,
    /// The segment being appended, in the layout of [`Segment`].
    arena: Vec<u32>,
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
    /// A packer for queries of at most `cap` nodes (at least the root)
    /// against a graph of `num_nodes` nodes.
    pub(crate) fn new(num_nodes: usize, cap: usize) -> Self {
        Self { cap: cap.max(1), stamp: vec![0; num_nodes], local: vec![0; num_nodes], ..Self::default() }
    }

    /// Append the ego subgraph of `root` as the batch's next segment, with
    /// its mask rows and its rows of the `[num_nodes, feat_dim]` `features`.
    pub(crate) fn push_query(&mut self, graph: &CsrGraph, root: u32, features: &[f32], feat_dim: usize) {
        self.select(graph, root);
        self.extract(graph, root);
        self.out.append(&self.arena, features, feat_dim);
    }

    /// Append an extracted subgraph as the batch's next segment.
    fn push_subgraph(&mut self, sub: &EgoSubgraph, features: &[f32], feat_dim: usize) {
        let arena = &mut self.arena;
        arena.clear();
        let n = sub.graph.num_nodes();
        arena.extend_from_slice(&[n as u32, sub.graph.num_arcs() as u32, 0]);
        arena.extend_from_slice(&sub.nodes);
        arena.extend(sub.graph.row_ptr()[1..].iter().map(|&e| e as u32));
        arena.extend_from_slice(sub.graph.col_idx());
        close_mask(arena);
        self.out.append(&self.arena, features, feat_dim);
    }

    /// BFS from `root` until `cap` nodes: stamp them with a new query
    /// number and lay them out in `nodes`, root first, the rest ascending.
    fn select(&mut self, graph: &CsrGraph, root: u32) {
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
        while head < self.nodes.len() && self.nodes.len() < self.cap {
            let v = self.nodes[head];
            head += 1;
            for &u in graph.neighbors(v as usize) {
                if self.nodes.len() >= self.cap {
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

    /// Write the segment of the nodes [`Self::select`] laid out into the
    /// arena.
    fn extract(&mut self, graph: &CsrGraph, root: u32) {
        for (i, &v) in self.nodes.iter().enumerate() {
            self.local[v as usize] = i as u32;
        }
        let arena = &mut self.arena;
        arena.clear();
        let n = self.nodes.len();
        arena.extend_from_slice(&[n as u32, 0, 0]);
        arena.extend_from_slice(&self.nodes);
        let ends = arena.len();
        arena.resize(ends + n, 0);
        let cols = arena.len();
        let (root, mark) = (root as usize, self.mark);
        for (i, &v) in self.nodes.iter().enumerate() {
            let v = v as usize;
            let nbrs = graph.neighbors(v);
            let row = arena.len();
            arena.resize(row + nbrs.len() + 1, 0);
            let out = &mut arena[row..];
            // The root is local 0, the segment's smallest: it leads the row
            // when present, and the filter skips it.
            out[0] = 0;
            let mut kept = usize::from(graph.has_edge(v, root));
            for &u in nbrs {
                let u = u as usize;
                out[kept] = self.local[u];
                kept += usize::from((self.stamp[u] == mark) & (u != root));
            }
            arena.truncate(row + kept);
            arena[ends + i] = (arena.len() - cols) as u32;
        }
        arena[1] = (arena.len() - cols) as u32;
        close_mask(arena);
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

/// Append the mask rows of the segment in `arena`, whose graph rows are
/// written: each graph row with its own local id merged in at its sorted
/// place.
fn close_mask(arena: &mut Vec<u32>) {
    let n = arena[0] as usize;
    let (ends, cols) = (3 + n, 3 + 2 * n);
    let mask_ends = arena.len();
    arena.resize(mask_ends + n, 0);
    let mask_cols = arena.len();
    let mut lo = cols;
    for i in 0..n {
        let (hi, id) = (cols + arena[ends + i] as usize, i as u32);
        let below = lo + arena[lo..hi].partition_point(|&c| c < id);
        arena.extend_from_within(lo..below);
        arena.push(id);
        let rest = below + usize::from(below < hi && arena[below] == id);
        arena.extend_from_within(rest..hi);
        arena[mask_ends + i] = (arena.len() - mask_cols) as u32;
        lo = hi;
    }
    arena[2] = (arena.len() - mask_cols) as u32;
}

/// The parts of the segment in an arena:
/// `[n, g, m, nodes[n], graph row ends[n], graph cols[g], mask row ends[n],
/// mask cols[m]]`, row ends counted from the first column of their rows and
/// every column a local id.
struct Segment<'a> {
    nodes: &'a [u32],
    graph_ends: &'a [u32],
    graph_cols: &'a [u32],
    mask_ends: &'a [u32],
    mask_cols: &'a [u32],
}

impl<'a> Segment<'a> {
    fn of(arena: &'a [u32]) -> Self {
        let [n, g, m] = [0, 1, 2].map(|k| arena[k] as usize);
        let (nodes, rest) = arena[3..].split_at(n);
        let (graph_ends, rest) = rest.split_at(n);
        let (graph_cols, rest) = rest.split_at(g);
        let (mask_ends, rest) = rest.split_at(n);
        Self { nodes, graph_ends, graph_cols, mask_ends, mask_cols: &rest[..m] }
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

    /// Append the segment in `arena` as the batch's next segment, every
    /// local id shifted by its first token, with the feature rows of its
    /// nodes.
    fn append(&mut self, arena: &[u32], features: &[f32], feat_dim: usize) {
        let seg = Segment::of(arena);
        let start = self.next_token();
        let shift = start as u32;
        let base = self.col_idx.len();
        self.row_ptr.extend(seg.graph_ends.iter().map(|&e| base + e as usize));
        self.col_idx.extend(seg.graph_cols.iter().map(|&c| c + shift));
        let base = self.mask_col.len();
        self.mask_ptr.extend(seg.mask_ends.iter().map(|&e| base + e as usize));
        self.mask_col.extend(seg.mask_cols.iter().map(|&c| c + shift));
        for &v in seg.nodes {
            let off = v as usize * feat_dim;
            self.features.extend_from_slice(&features[off..off + feat_dim]);
        }
        self.segments.push((start, start + seg.nodes.len()));
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
        let mut reused = Packer::new(g.num_nodes(), 3);
        for roots in [[2u32, 0, 4], [3, 3, 1], [4, 2, 2]] {
            let mut fresh = Packer::new(g.num_nodes(), 3);
            for &r in &roots {
                reused.push_query(&g, r, &feat, 2);
                fresh.push_query(&g, r, &feat, 2);
            }
            let (a, b) = (reused.finish(2), fresh.finish(2));
            assert_same(&a, &b);
            reused.recycle(a);
        }
    }

    #[test]
    fn a_wrapped_query_counter_forgets_old_stamps() {
        // Every node stamped by query 1 long ago; the counter is about to
        // wrap back to 1.
        let g = path_graph();
        let mut p = Packer::new(g.num_nodes(), 8);
        p.stamp.fill(1);
        p.mark = u32::MAX;
        p.push_query(&g, 0, &[], 0);
        assert_eq!(p.mark, 1);
        assert_eq!(p.nodes, vec![0, 1, 2, 3]);
    }

    /// Byte-for-byte equality of two packed batches: graph, mask, segments
    /// and the bits of every feature.
    fn assert_same(a: &PackedQueryBatch, b: &PackedQueryBatch) {
        assert_eq!((&a.graph, &a.mask, &a.segments), (&b.graph, &b.mask, &b.segments));
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!((a.features.rows(), a.features.cols()), (b.features.rows(), b.features.cols()));
        assert_eq!(bits(&a.features), bits(&b.features));
    }
}
