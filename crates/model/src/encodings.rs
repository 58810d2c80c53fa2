//! Graph structural encodings (Graphormer Eqs. 2–3 and GT's positional
//! encodings).

use crate::attention::BiasGrad;
use std::collections::HashMap;
use torchgt_graph::{spd, CsrGraph};
use torchgt_tensor::layers::Embedding;
use torchgt_tensor::rng::derive_seed;
use torchgt_tensor::{Param, Tensor, Workspace};

/// Degree ("centrality") encoding: learnable embeddings indexed by node
/// degree, added to the input features (Graphormer Eq. 2; undirected graphs
/// have `deg⁻ = deg⁺`, so one table suffices).
pub struct DegreeEncoding {
    table: Embedding,
    /// Reused per-pass degree-index scratch (cleared, never shrunk).
    degrees: Vec<usize>,
}

impl DegreeEncoding {
    /// Construct with `max_degree + 1` buckets (degrees clamp into the last
    /// one) and embedding width `dim`.
    pub fn new(max_degree: usize, dim: usize, seed: u64) -> Self {
        Self { table: Embedding::new(max_degree + 1, dim, derive_seed(seed, 30)), degrees: Vec::new() }
    }

    /// Look up the encodings for all nodes of `graph` (in id order), the
    /// output drawn from `ws`.
    pub fn forward_ws(&mut self, graph: &CsrGraph, ws: &mut Workspace) -> Tensor {
        self.degrees.clear();
        self.degrees.extend((0..graph.num_nodes()).map(|v| graph.degree(v)));
        self.table.forward_indices_ws(&self.degrees, ws)
    }

    /// Accumulate gradients for the last forward, with scatter scratch
    /// drawn from `ws`.
    pub fn backward_ws(&mut self, dy: &Tensor, ws: &mut Workspace) {
        self.table.backward_indices_ws(dy, ws);
    }

    /// Mutable parameter access.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.table.table]
    }
}

/// Shortest-path-distance attention bias (Graphormer Eq. 3): a learnable
/// scalar per head per SPD bucket, shared across layers.
///
/// Buckets: `0..=max_dist` for exact distances, bucket `max_dist + 1` for
/// "unreachable / farther".
pub struct SpdBias {
    /// `[heads, max_dist + 2]` learnable scalars.
    pub table: Param,
    max_dist: u8,
    /// Cached bucket index per mask edge, for backward.
    cached_buckets: Vec<usize>,
}

impl SpdBias {
    /// Construct for `heads` heads and distances up to `max_dist`.
    pub fn new(heads: usize, max_dist: u8, seed: u64) -> Self {
        Self {
            table: Param::new(torchgt_tensor::init::normal(
                heads,
                max_dist as usize + 2,
                0.0,
                0.02,
                derive_seed(seed, 31),
            )),
            max_dist,
            cached_buckets: Vec::new(),
        }
    }

    /// Number of heads.
    pub fn heads(&self) -> usize {
        self.table.value.rows()
    }

    /// Build per-head per-edge bias vectors for a sparse mask, drawn from
    /// `ws`. `dist_of` supplies the SPD bucket source for each (query, key)
    /// pair — typically [`edge_spd`].
    pub fn sparse_bias_ws(
        &mut self,
        mask: &CsrGraph,
        dist_of: impl Fn(usize, usize) -> u8,
        ws: &mut Workspace,
    ) -> Vec<Vec<f32>> {
        let heads = self.heads();
        let max_dist = self.max_dist;
        let bucket = |dist: u8| {
            if dist == spd::UNREACHABLE || dist > max_dist {
                max_dist as usize + 1
            } else {
                dist as usize
            }
        };
        self.cached_buckets.clear();
        for v in 0..mask.num_nodes() {
            for &nb in mask.neighbors(v) {
                self.cached_buckets.push(bucket(dist_of(v, nb as usize)));
            }
        }
        (0..heads)
            .map(|h| {
                let row = self.table.value.row(h);
                let mut buf = ws.take_buf(self.cached_buckets.len());
                for (slot, &b) in buf.iter_mut().zip(&self.cached_buckets) {
                    *slot = row[b];
                }
                buf
            })
            .collect()
    }

    /// Accumulate table gradients from the per-edge [`BiasGrad`] of the
    /// last [`Self::sparse_bias_ws`] through `ws`; consumes the gradient,
    /// returning its buffers to the arena.
    pub fn backward_ws(&mut self, grad: BiasGrad, ws: &mut Workspace) {
        let BiasGrad::Sparse(per_head) = &grad else {
            panic!("SpdBias builds per-edge biases only: a dense bias gradient has no buckets")
        };
        let mut g = ws.take(self.heads(), self.table.value.cols());
        for (h, edges) in per_head.iter().enumerate() {
            debug_assert_eq!(edges.len(), self.cached_buckets.len());
            let grow = g.row_mut(h);
            for (&b, &dv) in self.cached_buckets.iter().zip(edges) {
                grow[b] += dv;
            }
        }
        self.table.accumulate(&g);
        ws.give(g);
        grad.recycle(ws);
    }

    /// Mutable parameter access.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.table]
    }
}

/// SPD bucket for a pair restricted to a sparse attention pattern: 0 for
/// self, 1 for an original graph edge, 2 for anything else (edges the
/// reformation or the global token introduced). Exact SPD over the pattern
/// is unnecessary — the pattern only contains local pairs.
pub fn edge_spd(graph: &CsrGraph) -> impl Fn(usize, usize) -> u8 + '_ {
    move |i, j| {
        if i == j {
            0
        } else if graph.has_edge(i, j) {
            1
        } else {
            2
        }
    }
}

/// Laplacian-style positional encoding for GT (Dwivedi & Bresson): the `k`
/// lowest non-trivial eigenvectors of the symmetric normalised Laplacian,
/// computed by deflated power iteration on `2I − L_sym` (largest eigenpairs
/// of that operator are the smallest of `L_sym`).
pub fn laplacian_pe(graph: &CsrGraph, k: usize, iters: usize, seed: u64) -> Tensor {
    let n = graph.num_nodes();
    let mut out = Tensor::zeros(n, k);
    if n == 0 || k == 0 {
        return out;
    }
    let inv_sqrt_deg: Vec<f32> =
        (0..n).map(|v| 1.0 / ((graph.degree(v) as f32).max(1.0)).sqrt()).collect();
    // y = (2I − L_sym) x = x + D^{-1/2} A D^{-1/2} x
    let apply = |x: &[f32], y: &mut [f32]| {
        for v in 0..n {
            let mut acc = 0.0f32;
            for &nb in graph.neighbors(v) {
                let u = nb as usize;
                acc += inv_sqrt_deg[v] * inv_sqrt_deg[u] * x[u];
            }
            y[v] = x[v] + acc;
        }
    };
    let mut basis: Vec<Vec<f32>> = Vec::with_capacity(k + 1);
    // The trivial eigenvector of L_sym is D^{1/2}·1 — deflate it first.
    let mut trivial: Vec<f32> = (0..n).map(|v| (graph.degree(v) as f32).max(1.0).sqrt()).collect();
    normalize(&mut trivial);
    basis.push(trivial);
    let mut rng = torchgt_tensor::rng::rng(seed);
    use torchgt_compat::rng::Rng;
    for comp in 0..k {
        let mut x: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
        let mut y = vec![0.0f32; n];
        for _ in 0..iters {
            // Orthogonalise against found components.
            for b in &basis {
                let dot: f32 = x.iter().zip(b).map(|(a, c)| a * c).sum();
                for (xi, bi) in x.iter_mut().zip(b) {
                    *xi -= dot * bi;
                }
            }
            normalize(&mut x);
            apply(&x, &mut y);
            std::mem::swap(&mut x, &mut y);
        }
        normalize(&mut x);
        for v in 0..n {
            out.set(v, comp, x[v]);
        }
        basis.push(x);
    }
    out
}

fn normalize(x: &mut [f32]) {
    let norm = x.iter().map(|v| v * v).sum::<f32>().sqrt().max(f32::MIN_POSITIVE);
    for v in x.iter_mut() {
        *v /= norm;
    }
}

/// Byte budget of one [`EncodingMemo`]: stored keys plus encodings.
///
/// 64 MiB is four times what the largest graph GT trains on in memory here
/// needs in full — ogbn-arxiv at `pe_dim` 8 is 169 k nodes × 32 B = 5.4 MiB
/// of encodings plus at most 10.7 MiB of CSR keys (1.35 MiB of `row_ptr`,
/// 2.33 M arcs × 4 B) — so every training run in the tree fits and hits from
/// its second visit on, while a process that never sees a graph twice (a GT
/// server, an out-of-core stream) stops growing at a fixed, modest bound. A
/// constant rather than a setting: the two callers that exist (training,
/// serving) are both served by one value.
pub const ENCODING_MEMO_BUDGET_BYTES: usize = 64 << 20;

/// Counters of an [`EncodingMemo`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that computed the encoding (stored or not).
    pub misses: u64,
    /// Bytes held: keys, encodings and per-entry bookkeeping.
    pub bytes: usize,
}

/// Exact, bounded memo of one encoding tensor per distinct graph.
///
/// Identity is the whole CSR content: the key is a stored copy of the graph,
/// hashed in full and compared with `==` on a hit, so two graphs share an
/// entry only when `row_ptr` and `col_idx` are equal element for element
/// (relabelled copies and graphs with equal degree sequences do not). A hit
/// lends the stored tensor; a miss runs the caller's `compute`, so the memo
/// never changes what an encoding *is*, only how often it is computed.
///
/// Memory is capped by insert-until-full: an entry that would take `bytes`
/// past the budget is returned but not stored, and nothing is ever evicted.
/// Training visits every sequence once per epoch in a fixed order — the
/// access pattern on which LRU with a working set one entry over capacity
/// hits *never* — whereas keeping the first `budget` bytes keeps hitting on
/// exactly that share of every later epoch; and a stream that never repeats
/// fills the budget once and then allocates nothing, where an evicting cache
/// would churn for no hit.
pub struct EncodingMemo {
    /// Key → slot in `values` (a `Copy` slot, so a hit's map borrow ends
    /// before the miss path inserts).
    index: HashMap<CsrGraph, usize>,
    values: Vec<Tensor>,
    /// The latest encoding that did not fit, lent until the next lookup.
    unstored: Tensor,
    budget: usize,
    stats: MemoStats,
}

impl Default for EncodingMemo {
    fn default() -> Self {
        Self::with_budget(ENCODING_MEMO_BUDGET_BYTES)
    }
}

impl EncodingMemo {
    fn with_budget(budget: usize) -> Self {
        Self {
            index: HashMap::new(),
            values: Vec::new(),
            unstored: Tensor::zeros(0, 0),
            budget,
            stats: MemoStats::default(),
        }
    }

    /// The encoding of `graph`: the stored one if this exact graph was seen
    /// while there was room, `compute()` otherwise.
    pub fn get_or_compute(&mut self, graph: &CsrGraph, compute: impl FnOnce() -> Tensor) -> &Tensor {
        if let Some(&slot) = self.index.get(graph) {
            self.stats.hits += 1;
            return &self.values[slot];
        }
        self.stats.misses += 1;
        let value = compute();
        let entry_bytes = std::mem::size_of_val(graph.row_ptr())
            + std::mem::size_of_val(graph.col_idx())
            + std::mem::size_of_val(value.data())
            + std::mem::size_of::<(CsrGraph, usize, Tensor)>();
        if self.stats.bytes + entry_bytes > self.budget {
            self.unstored = value;
            return &self.unstored;
        }
        self.stats.bytes += entry_bytes;
        self.index.insert(graph.clone(), self.values.len());
        self.values.push(value);
        self.values.last().expect("just pushed")
    }

    /// Hit / miss / byte counters since construction.
    pub fn stats(&self) -> MemoStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchgt_graph::generators::{complete_graph, cycle_graph, path_graph, star_graph};

    #[test]
    fn degree_encoding_equal_degrees_share_rows() {
        let mut enc = DegreeEncoding::new(8, 4, 1);
        let g = cycle_graph(6); // all degree 2
        let e = enc.forward_ws(&g, &mut Workspace::new());
        for v in 1..6 {
            assert_eq!(e.row(v), e.row(0));
        }
    }

    #[test]
    fn degree_encoding_backward_accumulates() {
        let mut enc = DegreeEncoding::new(8, 4, 1);
        let g = star_graph(5); // hub degree 4, leaves 1
        let _ = enc.forward_ws(&g, &mut Workspace::new());
        enc.backward_ws(&Tensor::full(5, 4, 1.0), &mut Workspace::new());
        let p = &enc.params_mut()[0].grad;
        assert_eq!(p.row(1), &[4.0; 4]); // 4 leaves hit bucket 1
        assert_eq!(p.row(4), &[1.0; 4]); // hub bucket 4
    }

    #[test]
    fn sparse_bias_reflects_distances() {
        // Complete mask over a path: self (0), path edge (1), farther (2).
        let g = path_graph(4);
        let mask = complete_graph(4).with_self_loops();
        let mut bias = SpdBias::new(2, 8, 3);
        let b = bias.sparse_bias_ws(&mask, edge_spd(&g), &mut Workspace::new());
        assert_eq!(b.len(), 2);
        let at = |i: usize, j: usize| {
            let k = mask.neighbors(i).iter().position(|&n| n as usize == j).unwrap();
            b[0][mask.row_ptr()[i] + k]
        };
        // Same bucket ⇒ same bias value within a head.
        assert_eq!(at(0, 1), at(1, 2)); // both edges
        assert_eq!(at(0, 0), at(3, 3)); // both self
        assert_eq!(at(0, 2), at(0, 3)); // both farther
        assert_ne!(at(0, 0), at(0, 3)); // self vs farther (generic)
    }

    #[test]
    fn sparse_bias_layout_and_backward() {
        let g = complete_graph(4).with_self_loops();
        let mut bias = SpdBias::new(2, 4, 5);
        let b = bias.sparse_bias_ws(&g, edge_spd(&g), &mut Workspace::new());
        assert_eq!(b[0].len(), g.num_arcs());
        let fake = BiasGrad::Sparse(vec![vec![1.0; g.num_arcs()]; 2]);
        bias.backward_ws(fake, &mut Workspace::new());
        // Self-loop bucket (0) got n = 4 contributions per head.
        assert_eq!(bias.table.grad.get(0, 0), 4.0);
        // Edge bucket (1) got the remaining 12.
        assert_eq!(bias.table.grad.get(0, 1), 12.0);
    }

    #[test]
    fn laplacian_pe_is_orthonormalish_and_deterministic() {
        let g = cycle_graph(12);
        let pe = laplacian_pe(&g, 3, 50, 7);
        let pe2 = laplacian_pe(&g, 3, 50, 7);
        assert_eq!(pe.data(), pe2.data());
        // Columns have unit norm.
        for c in 0..3 {
            let norm: f32 = (0..12).map(|r| pe.get(r, c).powi(2)).sum();
            assert!((norm - 1.0).abs() < 1e-3, "col {c} norm {norm}");
        }
        // Orthogonal to the trivial (constant·sqrt(deg)) vector: on a cycle
        // that is the constant vector, so columns sum ≈ 0.
        for c in 0..3 {
            let s: f32 = (0..12).map(|r| pe.get(r, c)).sum();
            assert!(s.abs() < 1e-2, "col {c} sum {s}");
        }
    }

    #[test]
    fn laplacian_pe_distinguishes_path_position() {
        // The Fiedler vector of a path has exactly one sign change (it
        // separates the two halves), and is antisymmetric about the centre.
        let g = path_graph(10);
        let pe = laplacian_pe(&g, 1, 200, 1);
        let col: Vec<f32> = (0..10).map(|r| pe.get(r, 0)).collect();
        let sign_changes =
            col.windows(2).filter(|w| (w[0] >= 0.0) != (w[1] >= 0.0)).count();
        assert_eq!(sign_changes, 1, "fiedler vector: {col:?}");
        for i in 0..5 {
            assert!(
                (col[i] + col[9 - i]).abs() < 1e-3,
                "not antisymmetric: {col:?}"
            );
        }
    }

    #[test]
    fn memo_lends_the_stored_tensor_and_counts() {
        let (a, b) = (cycle_graph(8), path_graph(8));
        let mut memo = EncodingMemo::default();
        let first = memo.get_or_compute(&a, || laplacian_pe(&a, 2, 30, 5)).data().as_ptr();
        let _ = memo.get_or_compute(&b, || laplacian_pe(&b, 2, 30, 5));
        let again = memo.get_or_compute(&a, || unreachable!("stored on the first visit"));
        assert_eq!(again.data().as_ptr(), first, "a hit lends the stored buffer");
        assert_eq!(again.data(), laplacian_pe(&a, 2, 30, 5).data());
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert!(stats.bytes > 0 && stats.bytes <= ENCODING_MEMO_BUDGET_BYTES);
    }

    #[test]
    fn memo_stops_inserting_at_its_budget_and_stays_exact() {
        // Distinct graphs (cycles of growing length), a budget that holds
        // only the first few of them, two passes in the same order.
        let graphs: Vec<CsrGraph> = (3..40).map(cycle_graph).collect();
        let budget = 4096;
        let mut memo = EncodingMemo::with_budget(budget);
        let mut stored_after_first_pass = 0;
        for pass in 0..2 {
            for g in &graphs {
                let pe = memo.get_or_compute(g, || laplacian_pe(g, 2, 30, 5));
                assert_eq!(pe.data(), laplacian_pe(g, 2, 30, 5).data(), "exact past the cap too");
                assert!(memo.stats().bytes <= budget);
            }
            let stats = memo.stats();
            if pass == 0 {
                assert_eq!((stats.hits, stats.misses), (0, graphs.len() as u64));
                stored_after_first_pass = memo.values.len();
                assert!(
                    (1..graphs.len()).contains(&stored_after_first_pass),
                    "the budget holds some but not all: {stored_after_first_pass}"
                );
            } else {
                // No eviction: exactly what was stored in pass 0 hits in
                // pass 1, and the overflow neither displaced it nor grew it.
                assert_eq!(stats.hits, stored_after_first_pass as u64);
                assert_eq!(memo.values.len(), stored_after_first_pass);
            }
        }
    }
}
