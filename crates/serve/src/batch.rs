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
//! A packer answers queries against one graph at one context cap, so a
//! node's segment never changes: the packer keeps the segments it extracts
//! in a [`SegmentMemo`] until a byte budget is full, and a repeated node is
//! appended from its stored segment with no extraction. A stored and a
//! freshly extracted segment are the same words, appended by the same code,
//! so a batch does not depend on what the memo holds.
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
    /// The segments extracted so far, and the one being written.
    memo: SegmentMemo,
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
    /// its mask rows and its rows of the `[num_nodes, feat_dim]` `features`:
    /// the stored segment when the memo holds one, else a fresh extraction.
    pub(crate) fn push_query(&mut self, graph: &CsrGraph, root: u32, features: &[f32], feat_dim: usize) {
        let at = match self.memo.find(root) {
            Some(at) => at,
            None => {
                self.select(graph, root);
                let at = self.extract(graph, root);
                self.memo.insert(root, at, self.stamp.len());
                at
            }
        };
        self.out.append(&self.memo.arena, at, features, feat_dim);
        self.memo.drop_unstored();
    }

    /// Append an extracted subgraph as the batch's next segment.
    fn push_subgraph(&mut self, sub: &EgoSubgraph, features: &[f32], feat_dim: usize) {
        let arena = &mut self.memo.arena;
        let at = arena.len();
        let n = sub.graph.num_nodes();
        arena.extend_from_slice(&[n as u32, sub.graph.num_arcs() as u32, 0]);
        arena.extend_from_slice(&sub.nodes);
        arena.extend(sub.graph.row_ptr()[1..].iter().map(|&e| e as u32));
        arena.extend_from_slice(sub.graph.col_idx());
        close_mask(arena, at);
        self.out.append(&self.memo.arena, at, features, feat_dim);
        self.memo.drop_unstored();
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

    /// Write the segment of the nodes [`Self::select`] laid out at the end
    /// of the memo's arena and return where it starts.
    fn extract(&mut self, graph: &CsrGraph, root: u32) -> usize {
        for (i, &v) in self.nodes.iter().enumerate() {
            self.local[v as usize] = i as u32;
        }
        let arena = &mut self.memo.arena;
        let at = arena.len();
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
        arena[at + 1] = (arena.len() - cols) as u32;
        close_mask(arena, at);
        at
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

    /// Segment lookups the memo answered and extractions it did not, since
    /// construction.
    pub(crate) fn segment_counts(&self) -> (u64, u64) {
        (self.memo.hits, self.memo.misses)
    }
}

/// Append the mask rows of the segment at `at` of `arena`, whose graph rows
/// are written: each graph row with its own local id merged in at its
/// sorted place.
fn close_mask(arena: &mut Vec<u32>, at: usize) {
    let n = arena[at] as usize;
    let (ends, cols) = (at + 3 + n, at + 3 + 2 * n);
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
    arena[at + 2] = (arena.len() - mask_cols) as u32;
}

/// The parts of the segment at `at` of an arena:
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
    fn at(arena: &'a [u32], at: usize) -> Self {
        let [n, g, m] = [0, 1, 2].map(|k| arena[at + k] as usize);
        let (nodes, rest) = arena[at + 3..].split_at(n);
        let (graph_ends, rest) = rest.split_at(n);
        let (graph_cols, rest) = rest.split_at(g);
        let (mask_ends, rest) = rest.split_at(n);
        Self { nodes, graph_ends, graph_cols, mask_ends, mask_cols: &rest[..m] }
    }
}

/// Byte budget of a packer's [`SegmentMemo`]: stored segments plus the
/// per-node index.
///
/// A segment at the served context cap of 32 nodes over the ogbn-arxiv
/// stand-in takes ≈ 2 KiB (`3 + 3n + graph arcs + mask arcs` words, ≈ 200
/// graph arcs), so 16 MiB holds ≈ 8 k segments: every node of the graphs
/// served here (all 1,693 segments at scale 0.01 take 3.3 MiB), and the
/// hottest twentieth of the full graph. A constant rather than a setting,
/// like `EncodingMemo`'s: one value serves every caller that exists.
const SEGMENT_MEMO_BUDGET_BYTES: usize = 16 << 20;

/// Exact, bounded memo of each served node's segment.
///
/// The key is the root node alone: a packer answers one graph at one
/// context cap, and a segment is a function of graph, cap and root, so a
/// stored segment is the one extraction would write. Segments live one
/// after another in one `u32` arena, indexed by a per-node offset, and the
/// arena's tail past the stored ones is where the packer writes a segment
/// before the memo decides whether to keep it.
///
/// Memory is capped by insert-until-full, as `EncodingMemo`'s: a segment
/// that would take the held bytes past the budget is used once and not
/// stored, and nothing is ever evicted. Under Zipf traffic the nodes seen
/// first are mostly the hot ones, so the first `budget` bytes keep hitting
/// on the bulk of later queries, and a cold tail past the budget costs an
/// extraction each time and no memory — where an evicting cache would churn
/// its cold entries through on every miss.
struct SegmentMemo {
    /// Per node of the served graph: 1 + the offset of its stored segment in
    /// `arena`, 0 when none is; empty until the first store.
    index: Vec<u32>,
    /// Stored segments in `..stored`, the segment being written after.
    arena: Vec<u32>,
    stored: usize,
    budget: usize,
    hits: u64,
    misses: u64,
}

impl Default for SegmentMemo {
    fn default() -> Self {
        Self::with_budget(SEGMENT_MEMO_BUDGET_BYTES)
    }
}

impl SegmentMemo {
    fn with_budget(budget: usize) -> Self {
        // An offset + 1 of a within-budget arena fits the index's u32.
        assert!(budget / 4 < u32::MAX as usize, "segment memo budget past u32 offsets");
        Self { index: Vec::new(), arena: Vec::new(), stored: 0, budget, hits: 0, misses: 0 }
    }

    /// Where the stored segment of `root` starts, counting a hit, or `None`.
    fn find(&mut self, root: u32) -> Option<usize> {
        let at = self.index.get(root as usize).copied().filter(|&at| at != 0)? as usize - 1;
        self.hits += 1;
        Some(at)
    }

    /// Count a miss, and store the segment of `root` of a `num_nodes`-node
    /// graph, just written at `at`, when the budget has room for it.
    fn insert(&mut self, root: u32, at: usize, num_nodes: usize) {
        self.misses += 1;
        if 4 * (num_nodes + self.arena.len()) > self.budget {
            return;
        }
        self.index.resize(num_nodes, 0);
        self.index[root as usize] = at as u32 + 1;
        self.stored = self.arena.len();
    }

    /// Forget a segment written past the stored ones.
    fn drop_unstored(&mut self) {
        self.arena.truncate(self.stored);
    }

    /// Bytes held: stored segments plus the index.
    #[cfg(test)]
    fn bytes(&self) -> usize {
        4 * (self.index.len() + self.stored)
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

    /// Append the segment at `at` of `arena` as the batch's next segment,
    /// every local id shifted by its first token, with the feature rows of
    /// its nodes.
    fn append(&mut self, arena: &[u32], at: usize, features: &[f32], feat_dim: usize) {
        let seg = Segment::at(arena, at);
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
    use torchgt_compat::rng::{Rng, SeedableRng, SmallRng};

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
        // Five distinct roots extracted once each; the other four reads hit.
        assert_eq!(reused.segment_counts(), (4, 5));
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

    /// A random graph of `nodes` nodes whose last third is isolated, with
    /// some self-loops, and `nodes × 3` random features.
    fn random_graph(rng: &mut SmallRng, nodes: usize) -> (CsrGraph, Vec<f32>) {
        let linked = (2 * nodes / 3).max(2) as u32;
        let edges: Vec<(u32, u32)> =
            (0..3 * linked).map(|_| (rng.gen_range(0..linked), rng.gen_range(0..linked))).collect();
        let features = (0..nodes * 3).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        (CsrGraph::from_edges(nodes, &edges), features)
    }

    /// The batch of `roots` packed from extractions alone: a fresh
    /// `ego_subgraph` per root through `pack_queries`.
    fn extracted(graph: &CsrGraph, roots: &[u32], cap: usize, features: &[f32]) -> PackedQueryBatch {
        let subs: Vec<EgoSubgraph> = roots.iter().map(|&r| ego_subgraph(graph, r, cap)).collect();
        pack_queries(&subs, features, 3)
    }

    /// The byte accounting behind the budget: with a budget far below the
    /// served one, the held bytes never pass it (`tests/serving.rs` checks
    /// the same policy at the served budget through `ServeLoop`).
    #[test]
    fn memo_stops_inserting_at_its_budget_and_stays_exact() {
        // Every node of a random graph as a query, two passes in the same
        // order, with a budget that holds only some of their segments.
        let mut rng = SmallRng::seed_from_u64(11);
        let (graph, features) = random_graph(&mut rng, 60);
        let budget = 4 * 60 + 1024;
        let mut packer = Packer::new(60, 8);
        packer.memo = SegmentMemo::with_budget(budget);
        let mut stored_after_first_pass = 0;
        for pass in 0..2 {
            for root in 0..60u32 {
                packer.push_query(&graph, root, &features, 3);
                let batch = packer.finish(3);
                assert_same(&batch, &extracted(&graph, &[root], 8, &features));
                packer.recycle(batch);
                assert!(packer.memo.bytes() <= budget, "held {} of {budget}", packer.memo.bytes());
            }
            let stored = packer.memo.index.iter().filter(|&&at| at != 0).count();
            let (hits, misses) = packer.segment_counts();
            if pass == 0 {
                assert_eq!((hits, misses), (0, 60));
                stored_after_first_pass = stored;
                assert!((1..60).contains(&stored), "the budget holds some but not all: {stored}");
            } else {
                // No eviction: exactly what was stored in pass 0 hits in pass
                // 1, and the overflow neither displaced it nor grew it.
                assert_eq!(hits, stored_after_first_pass as u64);
                assert_eq!(misses, 120 - hits);
                assert_eq!(stored, stored_after_first_pass);
            }
        }
    }
}
